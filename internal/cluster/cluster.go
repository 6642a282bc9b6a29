// Package cluster partitions the serving fleet's client population
// across daemon instances with a static-membership consistent-hash
// ring. There is no coordinator and no consensus: every instance loads
// the same config file, builds the same ring, and independently agrees
// which instance owns any client address — so N qoeproxy processes can
// tail the same Squid log or replay the same workload and jointly
// cover every client exactly once, each skipping (and counting) the
// clients the ring assigns elsewhere.
//
// The ring hashes VNodes virtual points per instance ("id#k" under
// 64-bit FNV-1a) onto the key space and assigns a client to the
// instance owning the first point at or clockwise-after the client's
// own hash. Virtual points smooth the per-instance load (with the
// default 64 points the heaviest instance of a pair typically carries
// under 60% of a uniform client population) and make membership edits
// cheap: adding or removing one instance moves only the clients whose
// arcs it gains or loses, roughly 1/N of the population, while every
// other client keeps its owner — which is what makes a warm
// snapshot/handoff between two members a bounded amount of moved
// state rather than a full reshuffle.
//
// Hashing is deterministic — FNV-1a with a constant avalanche
// finalizer over the config's own strings, no process-local seed — so
// the assignment is stable across
// processes, hosts and restarts. That determinism is load-bearing:
// scripts/smoke uses the same ring to work out each fleet member's
// share of a workload ahead of time, and the snapshot restore path uses
// it to reject clients the local instance no longer owns.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// DefaultVNodes is the virtual points each instance places on the ring
// when the config does not choose a count.
const DefaultVNodes = 64

// maxVNodes bounds a config's virtual points per instance, so a bad
// membership file cannot make every member allocate a huge ring.
const maxVNodes = 4096

// configVersion is the config file layout version this package writes
// and the newest it accepts.
const configVersion = 1

// Instance is one fleet member in the cluster config.
type Instance struct {
	// ID names the instance; it must be unique, non-empty, and is the
	// value passed to qoeproxy -instance-id. The ID participates in the
	// ring hash, so renaming an instance reassigns its partitions.
	ID string `json:"id"`
	// Metrics optionally records where the instance serves /metrics and
	// /healthz, so operators can find every member from the one shared
	// file. Nothing in the daemon reads it.
	Metrics string `json:"metrics,omitempty"`
}

// Config is the on-disk cluster membership: a versioned JSON document
// every fleet member loads at startup. Mirrors the envelope style of
// internal/core/persist.go — an explicit version field, unknown newer
// versions rejected.
type Config struct {
	Version int `json:"version"`
	// VNodes is the virtual points per instance; 0 means DefaultVNodes.
	VNodes    int        `json:"vnodes,omitempty"`
	Instances []Instance `json:"instances"`
}

// LoadConfig reads and validates a cluster config document.
func LoadConfig(r io.Reader) (*Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("cluster: decoding config: %w", err)
	}
	if cfg.Version < 1 || cfg.Version > configVersion {
		return nil, fmt.Errorf("cluster: config version %d, want 1..%d", cfg.Version, configVersion)
	}
	if cfg.VNodes < 0 || cfg.VNodes > maxVNodes {
		return nil, fmt.Errorf("cluster: vnodes %d, want 0..%d", cfg.VNodes, maxVNodes)
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = DefaultVNodes
	}
	if len(cfg.Instances) == 0 {
		return nil, fmt.Errorf("cluster: config has no instances")
	}
	seen := map[string]bool{}
	for i, in := range cfg.Instances {
		if in.ID == "" {
			return nil, fmt.Errorf("cluster: instance %d has an empty id", i)
		}
		if seen[in.ID] {
			return nil, fmt.Errorf("cluster: duplicate instance id %q", in.ID)
		}
		seen[in.ID] = true
	}
	return &cfg, nil
}

// LoadConfigFile is LoadConfig over a file path.
func LoadConfigFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	return LoadConfig(f)
}

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	owner int // index into instances
}

// Ring is the immutable client-to-instance assignment built from a
// Config. Safe for concurrent use.
type Ring struct {
	instances []string
	points    []point
	// owned[i] counts instance i's virtual points — the partitions the
	// instance owns, summing to len(points) across the fleet.
	owned []int
}

// New builds the ring from a validated config. Instances with
// colliding virtual points are resolved deterministically (lowest
// instance index wins the point), so every process builds the same
// assignment.
func New(cfg *Config) (*Ring, error) {
	if len(cfg.Instances) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one instance")
	}
	vnodes := cfg.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		instances: make([]string, len(cfg.Instances)),
		points:    make([]point, 0, vnodes*len(cfg.Instances)),
		owned:     make([]int, len(cfg.Instances)),
	}
	for i, in := range cfg.Instances {
		r.instances[i] = in.ID
		for k := 0; k < vnodes; k++ {
			r.points = append(r.points, point{hash: vnodeHash(in.ID, k), owner: i})
		}
	}
	// Sort by (hash, owner): ties resolve to the lowest instance index
	// in every process, keeping the assignment deterministic.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].owner < r.points[b].owner
	})
	// Drop duplicate hashes (keep the first = lowest owner index).
	dedup := r.points[:1]
	for _, p := range r.points[1:] {
		if p.hash != dedup[len(dedup)-1].hash {
			dedup = append(dedup, p)
		}
	}
	r.points = dedup
	for _, p := range r.points {
		r.owned[p.owner]++
	}
	return r, nil
}

// fnv64 hashes s with 64-bit FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is a finalizing avalanche step (the murmur3 fmix64 constants).
// Raw FNV-1a disperses low bits well but leaves the high bits — which
// decide ring position — correlated for near-identical inputs, so an
// instance's virtual points would cluster into one arc and the ring
// would skew badly. The finalizer spreads every input bit across the
// word while staying a pure constant function, so determinism across
// processes is preserved.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyHash positions a client key on the ring.
func keyHash(s string) uint64 { return mix64(fnv64(s)) }

// vnodeHash places virtual point k of an instance: the instance id, a
// separator, and the point index folded in a byte at a time (avoiding
// a fmt.Sprintf per point), then avalanched.
func vnodeHash(id string, k int) uint64 {
	const prime64 = 1099511628211
	h := fnv64(id)
	h ^= '#'
	h *= prime64
	for {
		h ^= uint64(k & 0xff)
		h *= prime64
		k >>= 8
		if k == 0 {
			return mix64(h)
		}
	}
}

// ownerIndex locates the instance owning a client key: the first
// virtual point clockwise from the key's hash, wrapping at the top.
func (r *Ring) ownerIndex(client string) int {
	h := keyHash(client)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner
}

// Owner returns the instance id owning a client address. The key
// should be the bare client host (no port), matching what qoeproxy
// shards by.
func (r *Ring) Owner(client string) string {
	return r.instances[r.ownerIndex(client)]
}

// Owns reports whether the given instance owns the client.
func (r *Ring) Owns(instanceID, client string) bool {
	return r.instances[r.ownerIndex(client)] == instanceID
}

// Instances returns the member ids in config order. The slice is the
// ring's own storage; callers must not mutate it.
func (r *Ring) Instances() []string { return r.instances }

// Has reports whether the ring knows the instance id.
func (r *Ring) Has(instanceID string) bool {
	for _, id := range r.instances {
		if id == instanceID {
			return true
		}
	}
	return false
}

// Partitions reports how many virtual points the instance owns — the
// qoeproxy_partitions_owned gauge. Summed across every member it
// equals TotalPartitions, which is how an operator verifies the fleet
// covers the whole key space exactly once.
func (r *Ring) Partitions(instanceID string) int {
	for i, id := range r.instances {
		if id == instanceID {
			return r.owned[i]
		}
	}
	return 0
}

// TotalPartitions reports the ring's total virtual point count.
func (r *Ring) TotalPartitions() int { return len(r.points) }
