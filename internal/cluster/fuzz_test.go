package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzLoadConfig asserts LoadConfig never panics on arbitrary bytes and
// that every config it accepts builds a ring that covers a fixed set
// of probe clients exactly once: Owns is true for exactly one member,
// Owner names that member, and the members' Partitions sum to
// TotalPartitions.
func FuzzLoadConfig(f *testing.F) {
	f.Add(sampleConfig)
	f.Add(`{"version":1,"instances":[{"id":"solo"}]}`)
	f.Add(`{"version":1,"vnodes":1,"instances":[{"id":"i0"},{"id":"i1"},{"id":"i2"}]}`)
	for _, tc := range badConfigs {
		f.Add(tc.doc)
	}
	probes := make([]string, 64)
	for i := range probes {
		probes[i] = fmt.Sprintf("10.%d.%d.%d", i/7, i%7, i)
	}
	probes = append(probes, "", "::1", "not-an-address")
	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := LoadConfig(strings.NewReader(doc))
		if err != nil {
			return
		}
		r, err := New(cfg)
		if err != nil {
			return
		}
		for _, client := range probes {
			owners := 0
			for _, id := range r.Instances() {
				if r.Owns(id, client) {
					owners++
					if got := r.Owner(client); got != id {
						t.Fatalf("client %q: Owns(%q) but Owner = %q", client, id, got)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("client %q is owned by %d instances, want 1", client, owners)
			}
		}
		sum := 0
		for _, id := range r.Instances() {
			sum += r.Partitions(id)
		}
		if sum != r.TotalPartitions() {
			t.Fatalf("partitions sum to %d, ring total is %d", sum, r.TotalPartitions())
		}
	})
}
