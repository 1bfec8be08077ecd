package simnet

import (
	"testing"
	"time"

	"jsymphony/internal/vclock"
)

func TestDiskWriteCost(t *testing.T) {
	// One write pays a seek plus the sequential transfer of the bytes.
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Idle, 7)
	m := f.Machine(0)
	var took time.Duration
	c.Spawn("w", func(a *vclock.Actor) {
		took = m.DiskWrite(a, 2_000_000) // 2 MB at 20 MB/s = 100ms
	})
	c.Run()
	want := DefaultDiskSeek + 100*time.Millisecond
	if took != want {
		t.Fatalf("DiskWrite took %v, want %v", took, want)
	}
	if got := time.Duration(c.Now()); got != want {
		t.Fatalf("virtual clock advanced %v, want %v", got, want)
	}
}

func TestDiskSpecOverride(t *testing.T) {
	spec := Ultra10_300
	spec.DiskSeek = 2 * time.Millisecond
	spec.DiskMBps = 40
	c := vclock.New()
	f := New(c, UniformCluster(spec, 1), Idle, 7)
	var took time.Duration
	c.Spawn("w", func(a *vclock.Actor) {
		took = f.Machine(0).DiskRead(a, 4_000_000) // 4 MB at 40 MB/s = 100ms
	})
	c.Run()
	if want := 2*time.Millisecond + 100*time.Millisecond; took != want {
		t.Fatalf("DiskRead took %v, want %v", took, want)
	}
}

func TestDiskSerializesOnOneArm(t *testing.T) {
	// Two concurrent operations queue behind the single disk arm the way
	// back-to-back sends queue behind the NIC: the second caller waits
	// for the first operation plus its own.
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Idle, 7)
	m := f.Machine(0)
	op := DefaultDiskSeek + 50*time.Millisecond // 1 MB
	ends := make([]vclock.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		c.Spawn("w", func(a *vclock.Actor) {
			m.DiskWrite(a, 1_000_000)
			ends[i] = a.Now()
		})
	}
	c.Run()
	last := ends[0]
	if ends[1] > last {
		last = ends[1]
	}
	if got := time.Duration(last); got != 2*op {
		t.Fatalf("second op finished at %v, want %v (serialized)", got, 2*op)
	}
}

func TestDiskOnDeadMachineFree(t *testing.T) {
	c := vclock.New()
	f := New(c, UniformCluster(Ultra10_300, 1), Idle, 7)
	m := f.Machine(0)
	m.Kill()
	var took time.Duration
	c.Spawn("w", func(a *vclock.Actor) {
		took = m.DiskWrite(a, 1_000_000)
	})
	c.Run()
	if took != 0 || c.Now() != 0 {
		t.Fatalf("dead machine performed I/O: took=%v now=%v", took, time.Duration(c.Now()))
	}
}
