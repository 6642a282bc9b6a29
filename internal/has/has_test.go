package has

import (
	"testing"

	"droppackets/internal/netem"
	"droppackets/internal/qoe"
	"droppackets/internal/stats"
	"droppackets/internal/trace"
)

func TestLadderValidate(t *testing.T) {
	good := Ladder{{Name: "a", Kbps: 100}, {Name: "b", Kbps: 200}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid ladder rejected: %v", err)
	}
	bad := []Ladder{
		{},
		{{Kbps: 200}, {Kbps: 200}},
		{{Kbps: 300}, {Kbps: 100}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad ladder %d accepted", i)
		}
	}
}

func TestHighestSustainable(t *testing.T) {
	l := Ladder{{Kbps: 100}, {Kbps: 500}, {Kbps: 2000}}
	cases := []struct {
		kbps float64
		want int
	}{{50, 0}, {100, 0}, {499, 0}, {500, 1}, {1999, 1}, {2000, 2}, {99999, 2}}
	for _, c := range cases {
		if got := l.HighestSustainable(c.kbps); got != c.want {
			t.Errorf("HighestSustainable(%g) = %d, want %d", c.kbps, got, c.want)
		}
	}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestLevelCategoryThresholds(t *testing.T) {
	// Svc1 §4.1: <=288p low, 480p medium, >=720p high.
	p := Svc1()
	wants := []qoe.Category{qoe.Low, qoe.Low, qoe.Low, qoe.Medium, qoe.High, qoe.High}
	for level, want := range wants {
		if got := p.LevelCategory(level); got != want {
			t.Errorf("Svc1 level %d (%s): %v, want %v", level, p.Ladder[level].Name, got, want)
		}
	}
	// Svc2 §4.1: <=360p low, 480p medium, >=720p high.
	p = Svc2()
	wants = []qoe.Category{qoe.Low, qoe.Low, qoe.Medium, qoe.High, qoe.High}
	for level, want := range wants {
		if got := p.LevelCategory(level); got != want {
			t.Errorf("Svc2 level %d: %v, want %v", level, got, want)
		}
	}
	// Svc3 §4.1: three levels map directly.
	p = Svc3()
	for level, want := range []qoe.Category{qoe.Low, qoe.Medium, qoe.High} {
		if got := p.LevelCategory(level); got != want {
			t.Errorf("Svc3 level %d: %v, want %v", level, got, want)
		}
	}
	// Out-of-range levels degrade to low.
	if Svc1().LevelCategory(-1) != qoe.Low || Svc1().LevelCategory(99) != qoe.Low {
		t.Error("out-of-range level should map to low")
	}
}

func TestValidateRejectsBrokenProfiles(t *testing.T) {
	p := Svc1()
	p.SegmentSeconds = 0
	if p.Validate() == nil {
		t.Error("zero segment duration accepted")
	}
	p = Svc1()
	p.ABR = nil
	if p.Validate() == nil {
		t.Error("nil ABR accepted")
	}
	p = Svc1()
	p.ConnMaxRequests = 0
	if p.Validate() == nil {
		t.Error("zero ConnMaxRequests accepted")
	}
	p = Svc1()
	p.CDNHostsMin = 0
	if p.Validate() == nil {
		t.Error("zero CDN hosts accepted")
	}
	p = Svc1()
	p.BufferCapSec = 1
	if p.Validate() == nil {
		t.Error("buffer cap below startup accepted")
	}
}

func ladder6() Ladder { return Svc1().Ladder }

func TestBufferFillerABR(t *testing.T) {
	abr := &BufferFillerABR{Safety: 0.9, FillTargetSec: 20, FillSafety: 0.5}
	base := ABRState{Ladder: ladder6(), SegmentSeconds: 5, Started: true}

	s := base
	s.ThroughputKbps = 0
	if got := abr.ChooseLevel(s); got != 0 {
		t.Errorf("no estimate: level %d, want 0", got)
	}
	// Filling: stricter safety factor applies.
	s = base
	s.BufferSec = 5
	s.ThroughputKbps = 3000
	s.LastLevel = 2
	if got := abr.ChooseLevel(s); got != ladder6().HighestSustainable(0.5*3000) {
		t.Errorf("fill phase level %d", got)
	}
	// Comfortable: normal safety, but at most one step up.
	s.BufferSec = 100
	s.LastLevel = 1
	if got := abr.ChooseLevel(s); got != 2 {
		t.Errorf("step cap violated: %d, want 2", got)
	}
	// During startup the cap is lifted.
	s.Started = false
	if got := abr.ChooseLevel(s); got != ladder6().HighestSustainable(0.9*3000) {
		t.Errorf("startup jump blocked: %d", got)
	}
}

func TestQualityKeeperABR(t *testing.T) {
	abr := &QualityKeeperABR{Optimism: 1.0, PanicBufferSec: 8, UpBufferSec: 10}
	base := ABRState{Ladder: Svc2().Ladder, SegmentSeconds: 4, Started: true}

	s := base
	s.ThroughputKbps = 0
	if got := abr.ChooseLevel(s); got != len(s.Ladder)/2 {
		t.Errorf("optimistic start level %d, want middle", got)
	}
	// Panic: buffer below threshold forces a single-step downswitch.
	s = base
	s.ThroughputKbps = 10000
	s.BufferSec = 3
	s.LastLevel = 3
	if got := abr.ChooseLevel(s); got != 2 {
		t.Errorf("panic downswitch: %d, want 2", got)
	}
	s.LastLevel = 0
	if got := abr.ChooseLevel(s); got != 0 {
		t.Errorf("panic at bottom: %d, want 0", got)
	}
	// Quality held even when the estimate collapses, as long as the
	// buffer is fine (the service's defining behaviour, §4.1).
	s = base
	s.ThroughputKbps = 100
	s.BufferSec = 30
	s.LastLevel = 3
	if got := abr.ChooseLevel(s); got != 3 {
		t.Errorf("hold violated: %d, want 3", got)
	}
	// Upswitch only with a comfortable buffer.
	s = base
	s.ThroughputKbps = 10000
	s.LastLevel = 2
	s.BufferSec = 5
	if got := abr.ChooseLevel(s); got != 1 {
		// Buffer 5 < panic 8: this is a panic downswitch.
		t.Errorf("got %d, want panic downswitch to 1", got)
	}
	s.BufferSec = 20
	if got := abr.ChooseLevel(s); got != 3 {
		t.Errorf("upswitch blocked: %d, want 3", got)
	}
}

func TestHybridABR(t *testing.T) {
	abr := &HybridABR{Safety: 0.9, LowBufferSec: 10, HighBufferSec: 20}
	base := ABRState{Ladder: Svc3().Ladder, SegmentSeconds: 6, Started: true}

	s := base
	s.ThroughputKbps = 0
	if got := abr.ChooseLevel(s); got != 0 {
		t.Errorf("no estimate: %d, want 0", got)
	}
	// Low buffer forces a step down even if the estimate is fine.
	s = base
	s.ThroughputKbps = 5000
	s.BufferSec = 5
	s.LastLevel = 2
	if got := abr.ChooseLevel(s); got != 1 {
		t.Errorf("low-buffer downswitch: %d, want 1", got)
	}
	// Upswitch needs a healthy buffer.
	s = base
	s.ThroughputKbps = 5000
	s.BufferSec = 15
	s.LastLevel = 1
	if got := abr.ChooseLevel(s); got != 1 {
		t.Errorf("upswitch below HighBufferSec: %d, want 1", got)
	}
	s.BufferSec = 30
	if got := abr.ChooseLevel(s); got != 2 {
		t.Errorf("upswitch blocked: %d, want 2", got)
	}
}

func TestABRNames(t *testing.T) {
	for _, a := range []ABR{&BufferFillerABR{}, &QualityKeeperABR{}, &HybridABR{}} {
		if a.Name() == "" {
			t.Errorf("%T has empty name", a)
		}
	}
}

// simulate is a test helper running one session on a flat link.
func simulate(t *testing.T, p *ServiceProfile, kbps, dur float64, seed int64) *Result {
	t.Helper()
	tr := &trace.Trace{Name: "flat", Class: trace.Broadband,
		Samples: []trace.Sample{{Kbps: kbps, Duration: dur}}}
	rng := stats.NewRNG(seed)
	link := netem.NewLink(tr, rng)
	link.LossRate = 0
	res, err := Simulate(p, link, dur, rng)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res
}

func TestSimulateFastLinkHighQoE(t *testing.T) {
	for _, p := range Profiles() {
		res := simulate(t, p, 50000, 300, 1)
		if res.QoE.Rebuffer != qoe.ZeroRebuffer {
			t.Errorf("%s on 50 Mbps: rebuffer %v, want zero", p.Name, res.QoE.Rebuffer)
		}
		if res.QoE.Quality != qoe.High {
			t.Errorf("%s on 50 Mbps: quality %v, want high", p.Name, res.QoE.Quality)
		}
	}
}

func TestSimulateSlowLinkLowQoE(t *testing.T) {
	for _, p := range Profiles() {
		res := simulate(t, p, 300, 300, 2)
		if res.QoE.Combined == qoe.High {
			t.Errorf("%s on 300 kbps: combined %v, want degraded", p.Name, res.QoE.Combined)
		}
	}
	// Svc1 degrades via quality; Svc2 via stalls (the paper's Figure 4
	// contrast) on a link that sits between their comfort zones.
	svc1 := simulate(t, Svc1(), 900, 400, 3)
	if svc1.QoE.Quality != qoe.Low {
		t.Errorf("Svc1 on 900 kbps: quality %v, want low", svc1.QoE.Quality)
	}
	if svc1.QoE.Rebuffer == qoe.HighRebuffer {
		t.Errorf("Svc1 on 900 kbps should avoid heavy re-buffering, got %v", svc1.QoE.Rebuffer)
	}
}

func TestSimulateLogShape(t *testing.T) {
	const dur = 137.0
	res := simulate(t, Svc1(), 4000, dur, 4)
	if len(res.Log) < int(dur)-1 || len(res.Log) > int(dur)+1 {
		t.Errorf("log has %d entries for a %.0fs session", len(res.Log), dur)
	}
	started := false
	for i, sec := range res.Log {
		if sec.Started {
			started = true
		} else if started {
			t.Fatalf("Started flag regressed at second %d", i)
		}
		if sec.Level < 0 || sec.Level >= len(res.Profile.Ladder) {
			t.Fatalf("second %d has level %d outside ladder", i, sec.Level)
		}
	}
	if !started {
		t.Error("playback never started on a 4 Mbps link")
	}
}

func TestSimulateDownloadsShape(t *testing.T) {
	res := simulate(t, Svc2(), 6000, 120, 5)
	var video, audio, beacons, manifests int
	lastVideoIdx := -1
	for _, d := range res.Downloads {
		switch d.Kind {
		case VideoSegment:
			video++
			if d.Index != lastVideoIdx+1 {
				t.Fatalf("video segment indices not sequential: %d after %d", d.Index, lastVideoIdx)
			}
			lastVideoIdx = d.Index
			if d.Level < 0 || d.Level >= len(res.Profile.Ladder) {
				t.Fatalf("segment %d has bad level %d", d.Index, d.Level)
			}
		case AudioSegment:
			audio++
		case Beacon:
			beacons++
		case Manifest:
			manifests++
		}
		if d.Transfer.End < d.Transfer.Start {
			t.Fatalf("download %v ends before start", d.Kind)
		}
	}
	if manifests != 1 {
		t.Errorf("%d manifests, want 1", manifests)
	}
	if video == 0 {
		t.Error("no video segments")
	}
	// One audio per video segment, except the final video segment when
	// its download outlives the session (the player closed).
	if audio != video && audio != video-1 {
		t.Errorf("Svc2 separate audio: %d audio vs %d video", audio, video)
	}
	wantBeacons := int(120 / res.Profile.BeaconIntervalSec)
	if beacons < wantBeacons-1 || beacons > wantBeacons+1 {
		t.Errorf("%d beacons, want ~%d", beacons, wantBeacons)
	}
	if len(res.SegLevels) != video {
		t.Errorf("SegLevels has %d entries for %d segments", len(res.SegLevels), video)
	}
}

func TestSimulateBufferCapRespected(t *testing.T) {
	// On a very fast link the player must not buffer more than the cap:
	// the content downloaded can exceed wall time by at most the cap.
	p := Svc2() // 50 s cap
	res := simulate(t, p, 100000, 200, 6)
	content := float64(len(res.SegLevels)) * p.SegmentSeconds
	if content > 200+p.BufferCapSec+2*p.SegmentSeconds {
		t.Errorf("downloaded %.0fs of content in a 200s session with a %.0fs cap", content, p.BufferCapSec)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := simulate(t, Svc1(), 2500, 180, 7)
	b := simulate(t, Svc1(), 2500, 180, 7)
	if len(a.Downloads) != len(b.Downloads) || a.QoE != b.QoE {
		t.Error("same-seed simulations differ")
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	tr := &trace.Trace{Name: "flat", Samples: []trace.Sample{{Kbps: 100, Duration: 10}}}
	link := netem.NewLink(tr, stats.NewRNG(1))
	if _, err := Simulate(Svc1(), link, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero duration accepted")
	}
	bad := Svc1()
	bad.ABR = nil
	if _, err := Simulate(bad, link, 60, stats.NewRNG(1)); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestDownloadKindString(t *testing.T) {
	kinds := []DownloadKind{Manifest, InitSegment, VideoSegment, AudioSegment, Beacon, Auxiliary, Preconnect}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d name %q empty or duplicated", k, s)
		}
		seen[s] = true
	}
	if DownloadKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// TestPlaybackStallAccounting drives the playback state machine
// directly: a long gap between segment arrivals must register as a
// stall of the right length.
func TestPlaybackStallAccounting(t *testing.T) {
	pb := &playback{segSec: 4}
	// Two segments arrive immediately: playback starts with 8 s of
	// content.
	pb.addSegment(0, 2, 2)
	pb.addSegment(0, 2, 2)
	if !pb.started {
		t.Fatal("playback should start after 2 segments")
	}
	// 20 wall seconds pass with no further downloads: 8 s play, 12 s
	// stall.
	pb.advance(20)
	if !pb.stalled {
		t.Fatal("player should be stalled")
	}
	// Two more segments resume playback.
	pb.addSegment(1, 2, 2)
	pb.addSegment(1, 2, 2)
	if pb.stalled {
		t.Fatal("player should have resumed")
	}
	pb.advance(28)
	s := qoe.Compute(pb.log, func(int) qoe.Category { return qoe.High })
	if s.StalledSeconds < 11 || s.StalledSeconds > 13 {
		t.Errorf("stalled %d seconds, want ~12", s.StalledSeconds)
	}
	if s.PlayedSeconds < 15 || s.PlayedSeconds > 17 {
		t.Errorf("played %d seconds, want ~16", s.PlayedSeconds)
	}
}

func TestSimulateWithInteractions(t *testing.T) {
	p := Svc1()
	tr := &trace.Trace{Name: "flat", Class: trace.Broadband,
		Samples: []trace.Sample{{Kbps: 4000, Duration: 300}}}
	run := func(inter *Interactions, seed int64) *Result {
		rng := stats.NewRNG(seed)
		link := netem.NewLink(tr, rng)
		link.LossRate = 0
		res, err := SimulateWithInteractions(p, link, 300, rng, inter)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil, 1)
	busy := run(&Interactions{PausesPerMinute: 2, PauseMeanSec: 15, SeeksPerMinute: 1}, 1)

	pausedSecs := 0
	for _, sec := range busy.Log {
		if sec.Paused {
			pausedSecs++
		}
	}
	if pausedSecs == 0 {
		t.Fatal("heavy interactions produced no paused seconds")
	}
	for _, sec := range clean.Log {
		if sec.Paused {
			t.Fatal("clean session has paused seconds")
		}
	}
	// Paused time must not count as stalls: on a comfortable 4 Mbps
	// link the interactive session still has zero re-buffering.
	if busy.QoE.Rebuffer != qoe.ZeroRebuffer {
		t.Errorf("interactive session rebuffer %v on a fast link", busy.QoE.Rebuffer)
	}
	// Pauses consume wall time without playback: fewer seconds played.
	if busy.QoE.PlayedSeconds >= clean.QoE.PlayedSeconds {
		t.Errorf("interactive played %d >= clean %d", busy.QoE.PlayedSeconds, clean.QoE.PlayedSeconds)
	}
}

func TestSeekDiscardsBuffer(t *testing.T) {
	// With constant seeking, the player re-downloads flushed content:
	// downloaded content should exceed played content noticeably.
	p := Svc2()
	tr := &trace.Trace{Name: "flat", Class: trace.Broadband,
		Samples: []trace.Sample{{Kbps: 20000, Duration: 240}}}
	rng := stats.NewRNG(2)
	link := netem.NewLink(tr, rng)
	link.LossRate = 0
	res, err := SimulateWithInteractions(p, link, 240, rng, &Interactions{SeeksPerMinute: 3})
	if err != nil {
		t.Fatal(err)
	}
	downloaded := float64(len(res.SegLevels)) * p.SegmentSeconds
	played := float64(res.QoE.PlayedSeconds)
	if downloaded < played {
		t.Errorf("downloaded %.0fs < played %.0fs", downloaded, played)
	}
}

func TestBBAABR(t *testing.T) {
	abr := &BBAABR{ReservoirSec: 10, CushionSec: 40}
	base := ABRState{Ladder: Svc1().Ladder, SegmentSeconds: 5, Started: true}

	// Below the reservoir: lowest rate regardless of throughput.
	s := base
	s.BufferSec = 5
	s.ThroughputKbps = 99999
	s.LastLevel = 1
	if got := abr.ChooseLevel(s); got != 0 {
		t.Errorf("below reservoir: level %d, want 0", got)
	}
	// Above reservoir+cushion: top rate (rate-limited by one step).
	s.BufferSec = 60
	s.LastLevel = len(base.Ladder) - 2
	if got := abr.ChooseLevel(s); got != len(base.Ladder)-1 {
		t.Errorf("above cushion: level %d, want top", got)
	}
	// Mid-cushion maps linearly.
	s.BufferSec = 30 // f = 0.5 -> level 2 of 0..5
	s.LastLevel = 2
	if got := abr.ChooseLevel(s); got != 2 {
		t.Errorf("mid cushion: level %d, want 2", got)
	}
	// Step limiting in both directions.
	s.BufferSec = 60
	s.LastLevel = 0
	if got := abr.ChooseLevel(s); got != 1 {
		t.Errorf("up-step cap: %d, want 1", got)
	}
	s.BufferSec = 0
	s.LastLevel = 4
	if got := abr.ChooseLevel(s); got != 3 {
		t.Errorf("down-step cap: %d, want 3", got)
	}
	// Startup uses throughput.
	s = base
	s.Started = false
	s.ThroughputKbps = 4000
	if got := abr.ChooseLevel(s); got != base.Ladder.HighestSustainable(3200) {
		t.Errorf("startup level %d", got)
	}
	if abr.Name() != "bba" {
		t.Error("name")
	}
}

func TestSimulateWithBBA(t *testing.T) {
	p := Svc1()
	p.ABR = &BBAABR{ReservoirSec: 15, CushionSec: 60}
	res := simulate(t, p, 20000, 300, 11)
	if res.QoE.Rebuffer == qoe.HighRebuffer {
		t.Errorf("BBA on 20 Mbps: rebuffer %v", res.QoE.Rebuffer)
	}
	// BBA climbs with buffer: a fast 5-minute session should reach high
	// quality for the majority of playback.
	if res.QoE.Quality == qoe.Low {
		t.Errorf("BBA on 20 Mbps ended with low quality")
	}
}

func TestPlaybackPauseSplitsAdvance(t *testing.T) {
	pb := &playback{segSec: 4}
	pb.addSegment(0, 1, 1) // starts immediately with 4 s buffered
	if !pb.started {
		t.Fatal("not started")
	}
	// Pause from t=1 to t=3: during [0,1) and [3,4) playback drains,
	// during the pause it does not.
	pb.advance(1)
	pb.pausedUntil = 3
	pb.advance(4)
	if pb.stalled {
		t.Fatal("stalled despite pause preserving buffer")
	}
	// Played 2 s of the 4 s wall time.
	if pb.played < 1.9 || pb.played > 2.1 {
		t.Errorf("played %.2f s, want ~2", pb.played)
	}
	paused := 0
	for _, sec := range pb.log {
		if sec.Paused {
			paused++
		}
	}
	if paused != 2 {
		t.Errorf("%d paused seconds logged, want 2", paused)
	}
}

func TestPlaybackUserWaitExcluded(t *testing.T) {
	pb := &playback{segSec: 4}
	pb.addSegment(0, 1, 2)
	pb.advance(2)
	// Seek: flush and refill.
	pb.buffer = 0
	pb.userWait = true
	pb.advance(6)
	if pb.stalled {
		t.Fatal("userWait must not be treated as a stall")
	}
	for i, sec := range pb.log {
		if sec.Stalled {
			t.Errorf("second %d logged as stalled during user wait", i)
		}
	}
	// Two segments resume playback.
	pb.addSegment(0, 1, 2)
	pb.addSegment(0, 1, 2)
	if pb.userWait {
		t.Error("userWait not cleared after refill")
	}
}

func TestMPCABR(t *testing.T) {
	abr := &MPCABR{}
	base := ABRState{Ladder: Svc1().Ladder, SegmentSeconds: 5, Started: true}

	// No estimate: conservative bottom.
	s := base
	if got := abr.ChooseLevel(s); got != 0 {
		t.Errorf("no estimate: %d", got)
	}
	// Huge throughput, healthy buffer: top or near-top rate.
	s = base
	s.ThroughputKbps = 50000
	s.BufferSec = 60
	s.LastLevel = len(base.Ladder) - 1
	if got := abr.ChooseLevel(s); got < len(base.Ladder)-2 {
		t.Errorf("fat link level %d", got)
	}
	// Thin link, near-empty buffer: the rebuffer penalty forces the
	// bottom rungs even though the last level was high.
	s = base
	s.ThroughputKbps = 700
	s.BufferSec = 2
	s.LastLevel = 4
	if got := abr.ChooseLevel(s); got > 1 {
		t.Errorf("starving buffer level %d, want <= 1", got)
	}
	// Startup is throughput-informed.
	s = base
	s.Started = false
	s.ThroughputKbps = 4000
	if got := abr.ChooseLevel(s); got != base.Ladder.HighestSustainable(0.85*4000) {
		t.Errorf("startup level %d", got)
	}
	if abr.Name() != "mpc" {
		t.Error("name")
	}
}

func TestSimulateWithMPC(t *testing.T) {
	p := Svc1()
	p.ABR = &MPCABR{}
	res := simulate(t, p, 20000, 240, 12)
	if res.QoE.Rebuffer == qoe.HighRebuffer {
		t.Errorf("MPC on 20 Mbps rebuffers: %v", res.QoE.Rebuffer)
	}
	if res.QoE.Quality == qoe.Low {
		t.Error("MPC on 20 Mbps stuck at low quality")
	}
}

func TestProfileByName(t *testing.T) {
	for _, want := range Profiles() {
		if p, err := Profile(want.Name); err != nil || p.Name != want.Name {
			t.Errorf("Profile(%q) = %v, %v", want.Name, p, err)
		}
	}
	if _, err := Profile("SvcX"); err == nil {
		t.Error("unknown service accepted")
	}
}
