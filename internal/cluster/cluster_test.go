package cluster

import (
	"fmt"
	"strings"
	"testing"
)

func testConfig(ids ...string) *Config {
	cfg := &Config{Version: 1}
	for _, id := range ids {
		cfg.Instances = append(cfg.Instances, Instance{ID: id})
	}
	return cfg
}

// sampleConfig is a valid two-member membership file.
const sampleConfig = `{
	"version": 1,
	"vnodes": 32,
	"instances": [
		{"id": "a", "metrics": "127.0.0.1:9090"},
		{"id": "b", "metrics": "127.0.0.1:9091"}
	]
}`

// badConfigs are membership files LoadConfig must reject.
var badConfigs = []struct{ name, doc string }{
	{"not json", `{{`},
	{"version 0", `{"version":0,"instances":[{"id":"a"}]}`},
	{"version future", `{"version":99,"instances":[{"id":"a"}]}`},
	{"no instances", `{"version":1,"instances":[]}`},
	{"empty id", `{"version":1,"instances":[{"id":""}]}`},
	{"duplicate id", `{"version":1,"instances":[{"id":"a"},{"id":"a"}]}`},
	{"negative vnodes", `{"version":1,"vnodes":-1,"instances":[{"id":"a"}]}`},
	{"too many vnodes", `{"version":1,"vnodes":4097,"instances":[{"id":"a"}]}`},
}

func TestLoadConfig(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VNodes != 32 || len(cfg.Instances) != 2 || cfg.Instances[1].Metrics != "127.0.0.1:9091" {
		t.Errorf("cfg = %+v", cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("a") || r.Has("zzz") {
		t.Error("Has misreports membership")
	}
}

func TestLoadConfigDefaultsVNodes(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"version":1,"instances":[{"id":"solo"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VNodes != DefaultVNodes {
		t.Errorf("VNodes = %d, want default %d", cfg.VNodes, DefaultVNodes)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	for _, tc := range badConfigs {
		if _, err := LoadConfig(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestOwnershipExactlyOnce is the fleet-coverage invariant: every
// client is owned by exactly one instance, and the Owns view each
// instance computes independently agrees with the global Owner.
func TestOwnershipExactlyOnce(t *testing.T) {
	r, err := New(testConfig("inst-0", "inst-1", "inst-2"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		client := fmt.Sprintf("10.%d.%d.%d", i%7, i%250, i%251)
		owner := r.Owner(client)
		owners := 0
		for _, id := range r.Instances() {
			if r.Owns(id, client) {
				owners++
				if id != owner {
					t.Fatalf("client %s: Owns says %s, Owner says %s", client, id, owner)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("client %s owned by %d instances", client, owners)
		}
	}
}

// TestDeterministicAcrossBuilds pins that two independently built rings
// from the same config agree on every placement — the property that
// lets fleet members partition without talking to each other.
func TestDeterministicAcrossBuilds(t *testing.T) {
	cfg := testConfig("a", "b", "c", "d")
	r1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(testConfig("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		client := fmt.Sprintf("198.51.%d.%d", i%200, i%97)
		if r1.Owner(client) != r2.Owner(client) {
			t.Fatalf("rings disagree on %s: %s vs %s", client, r1.Owner(client), r2.Owner(client))
		}
	}
}

// TestPartitionsSumToTotal verifies the operator coverage check: the
// per-instance qoeproxy_partitions_owned values sum to the ring total.
func TestPartitionsSumToTotal(t *testing.T) {
	r, err := New(testConfig("alpha", "beta", "gamma"))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, id := range r.Instances() {
		p := r.Partitions(id)
		if p == 0 {
			t.Errorf("instance %s owns no partitions", id)
		}
		sum += p
	}
	if sum != r.TotalPartitions() {
		t.Errorf("partitions sum %d, ring total %d", sum, r.TotalPartitions())
	}
	if r.Partitions("unknown") != 0 {
		t.Error("unknown instance owns partitions")
	}
}

// TestBalanceRoughlyUniform checks virtual nodes spread a uniform
// client population without pathological skew: with the default vnode
// count, no instance of a 4-member ring should carry more than half of
// 20k distinct clients.
func TestBalanceRoughlyUniform(t *testing.T) {
	r, err := New(testConfig("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("10.%d.%d.%d", (i/65536)%256, (i/256)%256, i%256))]++
	}
	for id, c := range counts {
		if c == 0 {
			t.Errorf("instance %s received no clients", id)
		}
		if c > n/2 {
			t.Errorf("instance %s owns %d of %d clients; ring is badly skewed", id, c, n)
		}
	}
}

// TestMembershipEditMovesOnlyAShare pins the consistent-hashing
// property the snapshot/handoff story relies on: removing one member
// of a 4-instance ring reassigns (roughly) only that member's clients;
// clients owned by surviving members keep their owner.
func TestMembershipEditMovesOnlyAShare(t *testing.T) {
	before, err := New(testConfig("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(testConfig("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const n = 10000
	for i := 0; i < n; i++ {
		client := fmt.Sprintf("203.0.%d.%d", i%113, i%251)
		was, is := before.Owner(client), after.Owner(client)
		if was == "d" {
			continue // d's clients must move somewhere
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d clients of surviving instances changed owner after removing one member", moved)
	}
}

func TestSingleInstanceOwnsEverything(t *testing.T) {
	r, err := New(testConfig("only"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !r.Owns("only", fmt.Sprintf("10.0.0.%d", i)) {
			t.Fatalf("single-instance ring does not own client %d", i)
		}
	}
}
