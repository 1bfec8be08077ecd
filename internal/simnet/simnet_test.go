package simnet

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"jsymphony/internal/vclock"
)

func newIdleFabric(specs []MachineSpec) *Fabric {
	return New(vclock.New(), specs, Idle, 1)
}

func TestPaperClusterInventory(t *testing.T) {
	specs := PaperCluster()
	if len(specs) != 13 {
		t.Fatalf("paper cluster has %d machines, want 13", len(specs))
	}
	names := make(map[string]bool)
	fast, slow := 0, 0
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate host name %q", s.Name)
		}
		names[s.Name] = true
		switch s.LinkMbps {
		case 100:
			fast++
		case 10:
			slow++
		default:
			t.Errorf("machine %s has unexpected link speed %v", s.Name, s.LinkMbps)
		}
		if s.MFlops <= 0 || s.MemMB <= 0 {
			t.Errorf("machine %s has non-positive resources: %+v", s.Name, s)
		}
	}
	// Paper: "All Sun Ultra workstations are connected based on 100
	// Mbits/sec bandwidth, whereas ... all other workstations rely on 10
	// Mbits/sec".
	if fast != 7 || slow != 6 {
		t.Fatalf("fast=%d slow=%d, want 7 Ultras and 6 Sparcstations", fast, slow)
	}
	// Inventory must be sorted fastest-first (greedy allocation order).
	for i := 1; i < len(specs); i++ {
		if specs[i].MFlops > specs[i-1].MFlops {
			t.Fatalf("inventory not fastest-first at %d: %v then %v", i, specs[i-1].MFlops, specs[i].MFlops)
		}
	}
}

func TestUniformCluster(t *testing.T) {
	specs := UniformCluster(Ultra1_170, 4)
	if len(specs) != 4 {
		t.Fatalf("len = %d", len(specs))
	}
	for i, s := range specs {
		if s.MFlops != Ultra1_170.MFlops {
			t.Errorf("machine %d spec differs", i)
		}
		for j := 0; j < i; j++ {
			if specs[j].Name == s.Name {
				t.Errorf("duplicate name %q", s.Name)
			}
		}
	}
}

func TestFabricLookup(t *testing.T) {
	f := newIdleFabric(PaperCluster())
	if len(f.Machines()) != 13 {
		t.Fatalf("machines = %d", len(f.Machines()))
	}
	m, ok := f.ByName("milena")
	if !ok || m.Name() != "milena" {
		t.Fatalf("ByName failed: %v %v", m, ok)
	}
	if _, ok := f.ByName("nosuch"); ok {
		t.Fatal("ByName found a ghost")
	}
	if f.Machine(0) != f.Machines()[0] {
		t.Fatal("Machine(0) mismatch")
	}
	if f.Machine(3).Index() != 3 {
		t.Fatal("Index mismatch")
	}
}

func TestLatencyClasses(t *testing.T) {
	f := newIdleFabric(PaperCluster())
	var ultra1, ultra2, sparc *Machine
	for _, m := range f.Machines() {
		switch {
		case m.Spec().LinkMbps == 100 && ultra1 == nil:
			ultra1 = m
		case m.Spec().LinkMbps == 100 && ultra2 == nil:
			ultra2 = m
		case m.Spec().LinkMbps == 10 && sparc == nil:
			sparc = m
		}
	}
	fastLat := f.Latency(ultra1, ultra2)
	slowLat := f.Latency(ultra1, sparc)
	self := f.Latency(ultra1, ultra1)
	if !(self < fastLat && fastLat < slowLat) {
		t.Fatalf("latency ordering wrong: self=%v fast=%v slow=%v", self, fastLat, slowLat)
	}
	if bw := f.Bandwidth(ultra1, ultra2); bw != 100e6 {
		t.Errorf("ultra-ultra bandwidth = %v, want 100e6", bw)
	}
	if bw := f.Bandwidth(ultra1, sparc); bw != 10e6 {
		t.Errorf("ultra-sparc bandwidth = %v, want 10e6 (slower NIC limits)", bw)
	}
}

func TestComputeExactOnIdleMachine(t *testing.T) {
	// On an idle machine with no sharers, Compute(flops) must take
	// exactly flops / (MFlops*1e6) seconds of virtual time.
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Idle, 7)
	m := f.Machine(0)
	var took vclock.Time
	c.Spawn("w", func(a *vclock.Actor) {
		start := a.Now()
		m.Compute(a, Ultra10_300.MFlops*1e6) // exactly one second of work
		took = a.Now() - start
	})
	c.Run()
	got := time.Duration(took).Seconds()
	if math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("1s of work took %vs", got)
	}
}

func TestComputeProcessorSharing(t *testing.T) {
	// Two equal computations started together on one machine should each
	// take ~2x the solo time.
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Idle, 7)
	m := f.Machine(0)
	work := Ultra10_300.MFlops * 1e6 / 10 // 100ms solo
	ends := make([]vclock.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		c.Spawn("w", func(a *vclock.Actor) {
			m.Compute(a, work)
			ends[i] = a.Now()
		})
	}
	c.Run()
	for i, e := range ends {
		got := time.Duration(e).Seconds()
		if math.Abs(got-0.2) > 0.03 { // quantum granularity slack
			t.Errorf("sharer %d finished at %vs, want ~0.2s", i, got)
		}
	}
}

func TestComputeFasterMachineWins(t *testing.T) {
	c := vclock.New()
	specs := []MachineSpec{Ultra10_440, Sparc10_40}
	specs[0].Name, specs[1].Name = "fast", "slow"
	f := New(c, specs, Idle, 7)
	var tFast, tSlow vclock.Time
	c.Spawn("fast", func(a *vclock.Actor) {
		f.Machine(0).Compute(a, 1e8)
		tFast = a.Now()
	})
	c.Spawn("slow", func(a *vclock.Actor) {
		f.Machine(1).Compute(a, 1e8)
		tSlow = a.Now()
	})
	c.Run()
	ratio := float64(tSlow) / float64(tFast)
	want := Ultra10_440.MFlops / Sparc10_40.MFlops
	if math.Abs(ratio-want) > 0.1*want {
		t.Fatalf("slow/fast time ratio = %v, want ~%v", ratio, want)
	}
}

func TestDayLoadSlowsCompute(t *testing.T) {
	elapsed := func(p LoadProfile) time.Duration {
		c := vclock.New()
		f := New(c, UniformCluster(Ultra10_300, 1), p, 7)
		c.Spawn("w", func(a *vclock.Actor) {
			f.Machine(0).Compute(a, Ultra10_300.MFlops*1e7) // 10s of solo work
		})
		c.Run()
		return time.Duration(c.Now())
	}
	night := elapsed(Night)
	day := elapsed(Day)
	if day <= night {
		t.Fatalf("day (%v) not slower than night (%v)", day, night)
	}
	// Night should be within ~10% of idle-speed.
	if night > time.Duration(11.5*float64(time.Second)) {
		t.Fatalf("night run too slow: %v", night)
	}
	// Day should cost noticeably more (mean load 0.30 → ≥ ~25% slower).
	if float64(day) < 1.2*float64(night) {
		t.Fatalf("day (%v) not noticeably slower than night (%v)", day, night)
	}
}

func TestLoadProfileBoundsProperty(t *testing.T) {
	f := func(seed int64, tick uint32) bool {
		t := vclock.Time(tick) * vclock.Time(time.Millisecond)
		for _, p := range []LoadProfile{Day, Night, Idle} {
			l := p.Load(seed, t)
			if l < 0 || l > 0.95 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDeterministic(t *testing.T) {
	p := Day
	for i := 0; i < 100; i++ {
		tm := vclock.Time(i) * vclock.Time(time.Second)
		if p.Load(42, tm) != p.Load(42, tm) {
			t.Fatal("load not deterministic")
		}
	}
	// Different seeds should give different traces.
	diff := 0
	for i := 0; i < 100; i++ {
		tm := vclock.Time(i) * vclock.Time(time.Second)
		if p.Load(1, tm) != p.Load(2, tm) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("all seeds produce identical traces")
	}
}

func TestSendDelivery(t *testing.T) {
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 2), Idle, 7)
	src, dst := f.Machine(0), f.Machine(1)
	var at vclock.Time
	c.Spawn("recv", func(a *vclock.Actor) {
		v, ok := a.Get(dst.Inbox())
		if !ok || v.(string) != "msg" {
			t.Errorf("Get = %v %v", v, ok)
		}
		at = a.Now()
	})
	c.Spawn("send", func(a *vclock.Actor) {
		src.Send(dst, 125000, "msg") // 1 Mbit over 100 Mbit/s = 10ms
	})
	c.Run()
	want := 10*time.Millisecond + f.Latency(src, dst)
	if got := time.Duration(at); got != want {
		t.Fatalf("delivered at %v, want %v", got, want)
	}
}

func TestSendNICQueueing(t *testing.T) {
	// Two back-to-back sends from one NIC serialize: the second message
	// arrives one transmission time after the first.
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 3), Idle, 7)
	src, d1, d2 := f.Machine(0), f.Machine(1), f.Machine(2)
	var at1, at2 vclock.Time
	c.Spawn("r1", func(a *vclock.Actor) {
		a.Get(d1.Inbox())
		at1 = a.Now()
	})
	c.Spawn("r2", func(a *vclock.Actor) {
		a.Get(d2.Inbox())
		at2 = a.Now()
	})
	c.Spawn("send", func(a *vclock.Actor) {
		src.Send(d1, 125000, 1) // 10ms tx
		src.Send(d2, 125000, 2) // must queue behind the first
	})
	c.Run()
	if at2-at1 != vclock.Time(10*time.Millisecond) {
		t.Fatalf("NIC queueing gap = %v, want 10ms", time.Duration(at2-at1))
	}
}

func TestSendToDeadMachineDropped(t *testing.T) {
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 2), Idle, 7)
	src, dst := f.Machine(0), f.Machine(1)
	dst.Kill()
	if dst.Alive() {
		t.Fatal("Kill did not mark machine dead")
	}
	var ok bool
	c.Spawn("recv", func(a *vclock.Actor) {
		_, ok = a.GetTimeout(dst.Inbox(), 50*time.Millisecond)
	})
	c.Spawn("send", func(a *vclock.Actor) {
		src.Send(dst, 100, "lost")
		a.Sleep(100 * time.Millisecond)
	})
	c.Run()
	if ok {
		t.Fatal("message delivered to dead machine")
	}
	dst.Revive()
	if !dst.Alive() {
		t.Fatal("Revive failed")
	}
}

func TestSnapshotData(t *testing.T) {
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Idle, 7)
	m := f.Machine(0)
	snap := m.Snapshot(0)
	if snap.Sharers != 0 || snap.Load != 0 || snap.AvailMem <= 0 {
		t.Fatalf("idle snapshot wrong: %+v", snap)
	}
	// While computing, utilization and sharers must rise.
	var busy SnapshotData
	c.Spawn("w", func(a *vclock.Actor) {
		// Sample from a second actor mid-computation.
		c.Spawn("sampler", func(b *vclock.Actor) {
			b.Sleep(10 * time.Millisecond)
			busy = m.Snapshot(b.Now())
		})
		m.Compute(a, Ultra10_300.MFlops*1e6) // 1s
	})
	c.Run()
	if busy.Sharers != 1 || busy.Util <= 0 {
		t.Fatalf("busy snapshot wrong: %+v", busy)
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate machine names not rejected")
		}
	}()
	specs := []MachineSpec{Ultra1_170, Ultra1_170}
	specs[0].Name, specs[1].Name = "same", "same"
	New(vclock.New(), specs, Idle, 1)
}

func BenchmarkCompute(b *testing.B) {
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Day, 7)
	m := f.Machine(0)
	a := c.Adopt("bench")
	defer a.Done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compute(a, 1e6)
	}
}
