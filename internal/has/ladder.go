// Package has simulates HTTP-based Adaptive Streaming (HAS) players: a
// segment-based video player with a playback buffer, per-service
// adaptation (ABR) logic and per-second ground-truth QoE logging. It is
// the substitute for the paper's browser-automation framework streaming
// three real services (§4.1); the three ServiceProfiles encode what the
// paper reports about Svc1–Svc3's designs.
package has

import (
	"fmt"

	"droppackets/internal/qoe"
)

// QualityLevel is one rung of a service's encoding ladder.
type QualityLevel struct {
	Name   string  // e.g. "720p"
	Height int     // vertical resolution in pixels
	Kbps   float64 // nominal encoding bitrate
}

// Ladder is an ordered set of quality levels, lowest first.
type Ladder []QualityLevel

// Validate checks that the ladder is non-empty and strictly increasing
// in bitrate.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("has: empty quality ladder")
	}
	for i := 1; i < len(l); i++ {
		if l[i].Kbps <= l[i-1].Kbps {
			return fmt.Errorf("has: ladder not increasing at level %d (%g <= %g kbps)",
				i, l[i].Kbps, l[i-1].Kbps)
		}
	}
	return nil
}

// HighestSustainable returns the highest ladder index whose bitrate does
// not exceed kbps, or 0 if none does.
func (l Ladder) HighestSustainable(kbps float64) int {
	best := 0
	for i, q := range l {
		if q.Kbps <= kbps {
			best = i
		}
	}
	return best
}

// ServiceProfile captures a streaming service's player design: ladder,
// segment length, buffer management, adaptation behaviour, request
// side-channel traffic and the resolution thresholds used to map quality
// levels onto QoE categories (§4.1).
type ServiceProfile struct {
	Name           string
	Ladder         Ladder
	SegmentSeconds float64
	// BufferCapSec is the maximum playback buffer; Svc1's is 240 s (§4.1).
	BufferCapSec float64
	// StartupSegments is how many segments must buffer before playback
	// starts.
	StartupSegments int
	// ResumeSegments is how many segments must re-buffer before playback
	// resumes after a stall.
	ResumeSegments int
	// ABR decides the quality of the next segment.
	ABR ABR
	// SeparateAudio requests audio segments on their own HTTP
	// transactions (as some services do), at AudioKbps.
	SeparateAudio bool
	AudioKbps     float64
	// BeaconIntervalSec spaces telemetry requests; 0 disables them.
	BeaconIntervalSec float64
	// AuxConfigProb is the probability that a session refetches player
	// configuration/static assets at startup (they are cached across
	// back-to-back videos most of the time).
	AuxConfigProb float64
	// HasDRMLicense reports whether every video start performs a DRM
	// license request (subscription services do; ad-funded catalogs
	// mostly do not).
	HasDRMLicense bool
	// LowQualityMaxHeight / MediumQualityMaxHeight are the §4.1
	// resolution thresholds: height <= LowQualityMaxHeight is low,
	// height <= MediumQualityMaxHeight is medium, above is high.
	LowQualityMaxHeight    int
	MediumQualityMaxHeight int
	// CDNHostsMin/Max bound how many CDN hostnames a session draws its
	// segments from (used by the capture layer and session-ID heuristic).
	CDNHostsMin, CDNHostsMax int
	// ConnIdleTimeoutSec is how long the service's CDN keeps an idle TLS
	// connection open before closing it; this controls how many HTTP
	// transactions collapse into one TLS transaction (§2.2) and how long
	// a transaction lingers past the player closing.
	ConnIdleTimeoutSec float64
	// ConnMaxRequests caps keep-alive requests per TLS connection, as
	// CDN front-ends commonly do; it bounds the HTTP-per-TLS collapse
	// factor from above.
	ConnMaxRequests int
}

// LevelCategory maps a ladder index to its QoE category using the
// profile's resolution thresholds.
func (p *ServiceProfile) LevelCategory(level int) qoe.Category {
	if level < 0 || level >= len(p.Ladder) {
		return qoe.Low
	}
	h := p.Ladder[level].Height
	switch {
	case h <= p.LowQualityMaxHeight:
		return qoe.Low
	case h <= p.MediumQualityMaxHeight:
		return qoe.Medium
	default:
		return qoe.High
	}
}

// Validate checks profile invariants.
func (p *ServiceProfile) Validate() error {
	if err := p.Ladder.Validate(); err != nil {
		return fmt.Errorf("profile %s: %w", p.Name, err)
	}
	if p.SegmentSeconds <= 0 {
		return fmt.Errorf("profile %s: non-positive segment duration", p.Name)
	}
	if p.BufferCapSec < p.SegmentSeconds*float64(p.StartupSegments) {
		return fmt.Errorf("profile %s: buffer cap %g below startup requirement", p.Name, p.BufferCapSec)
	}
	if p.ABR == nil {
		return fmt.Errorf("profile %s: no ABR algorithm", p.Name)
	}
	if p.CDNHostsMin < 1 || p.CDNHostsMax < p.CDNHostsMin {
		return fmt.Errorf("profile %s: bad CDN host range [%d,%d]", p.Name, p.CDNHostsMin, p.CDNHostsMax)
	}
	if p.ConnMaxRequests < 1 {
		return fmt.Errorf("profile %s: ConnMaxRequests must be >= 1", p.Name)
	}
	return nil
}

// Svc1 models the paper's first service: a large 240 s buffer and an
// adaptation policy that fills the buffer quickly at the cost of video
// quality, so poor networks mostly cause low quality rather than stalls
// (§4.1). Quality thresholds: <=288p low, <=480p medium, else high.
func Svc1() *ServiceProfile {
	return &ServiceProfile{
		Name: "Svc1",
		Ladder: Ladder{
			{Name: "144p", Height: 144, Kbps: 200},
			{Name: "240p", Height: 240, Kbps: 400},
			{Name: "288p", Height: 288, Kbps: 650},
			{Name: "480p", Height: 480, Kbps: 1400},
			{Name: "720p", Height: 720, Kbps: 2900},
			{Name: "1080p", Height: 1080, Kbps: 5200},
		},
		SegmentSeconds:         5,
		BufferCapSec:           240,
		StartupSegments:        2,
		ResumeSegments:         2,
		ABR:                    &BufferFillerABR{Safety: 0.9, FillTargetSec: 20, FillSafety: 0.7},
		BeaconIntervalSec:      15,
		AuxConfigProb:          0.35,
		LowQualityMaxHeight:    288,
		MediumQualityMaxHeight: 480,
		CDNHostsMin:            2,
		CDNHostsMax:            3,
		ConnIdleTimeoutSec:     18,
		ConnMaxRequests:        16,
	}
}

// Svc2 models the second service: quality is held high and only reduced
// when the buffer runs low, so poor networks mostly cause re-buffering
// (§4.1). Quality thresholds: <=360p low, 480p medium, >=720p high.
func Svc2() *ServiceProfile {
	return &ServiceProfile{
		Name: "Svc2",
		Ladder: Ladder{
			{Name: "240p", Height: 240, Kbps: 320},
			{Name: "360p", Height: 360, Kbps: 750},
			{Name: "480p", Height: 480, Kbps: 1400},
			{Name: "720p", Height: 720, Kbps: 3100},
			{Name: "1080p", Height: 1080, Kbps: 5800},
		},
		SegmentSeconds:         4,
		BufferCapSec:           50,
		StartupSegments:        2,
		ResumeSegments:         2,
		ABR:                    &QualityKeeperABR{Optimism: 1.0, PanicBufferSec: 8, UpBufferSec: 10},
		SeparateAudio:          true,
		AudioKbps:              96,
		BeaconIntervalSec:      30,
		AuxConfigProb:          0.35,
		HasDRMLicense:          true,
		LowQualityMaxHeight:    360,
		MediumQualityMaxHeight: 480,
		CDNHostsMin:            2,
		CDNHostsMax:            4,
		ConnIdleTimeoutSec:     35,
		ConnMaxRequests:        20,
	}
}

// Svc3 models the third service: only three quality levels mapped
// directly onto low/medium/high (§4.1) and a hybrid adaptation policy,
// giving behaviour between Svc1 and Svc2.
func Svc3() *ServiceProfile {
	return &ServiceProfile{
		Name: "Svc3",
		Ladder: Ladder{
			{Name: "low", Height: 360, Kbps: 600},
			{Name: "medium", Height: 540, Kbps: 1700},
			{Name: "high", Height: 900, Kbps: 3600},
		},
		SegmentSeconds:         6,
		BufferCapSec:           90,
		StartupSegments:        2,
		ResumeSegments:         2,
		ABR:                    &HybridABR{Safety: 0.9, LowBufferSec: 10, HighBufferSec: 20},
		BeaconIntervalSec:      25,
		AuxConfigProb:          0.35,
		HasDRMLicense:          true,
		LowQualityMaxHeight:    360,
		MediumQualityMaxHeight: 540,
		CDNHostsMin:            1,
		CDNHostsMax:            2,
		ConnIdleTimeoutSec:     30,
		ConnMaxRequests:        15,
	}
}

// Profiles returns the three service profiles in paper order.
func Profiles() []*ServiceProfile {
	return []*ServiceProfile{Svc1(), Svc2(), Svc3()}
}

// Profile returns the service profile with the given name.
func Profile(name string) (*ServiceProfile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown service %q", name)
}
