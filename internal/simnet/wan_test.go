package simnet

import (
	"testing"
	"time"

	"jsymphony/internal/vclock"
)

func TestWideAreaClusterInventory(t *testing.T) {
	specs := WideAreaCluster(3)
	if len(specs) != 6 {
		t.Fatalf("len = %d, want 6", len(specs))
	}
	sites := map[string]int{}
	for _, s := range specs {
		sites[s.Site]++
	}
	if sites["vienna"] != 3 || sites["linz"] != 3 {
		t.Fatalf("site split = %v", sites)
	}
}

func TestWANLatencyAndBandwidth(t *testing.T) {
	f := newIdleFabric(WideAreaCluster(2))
	v0, _ := f.ByName("vienna00")
	v1, _ := f.ByName("vienna01")
	l0, _ := f.ByName("linz00")

	if got := f.Latency(v0, v1); got >= WANLatency {
		t.Fatalf("intra-site latency %v not below WAN latency", got)
	}
	if got := f.Latency(v0, l0); got != WANLatency {
		t.Fatalf("cross-site latency = %v, want %v", got, WANLatency)
	}
	if got := f.Bandwidth(v0, v1); got != 100e6 {
		t.Fatalf("intra-site bandwidth = %v", got)
	}
	if got := f.Bandwidth(v0, l0); got != WANMbps*1e6 {
		t.Fatalf("cross-site bandwidth = %v, want %v", got, WANMbps*1e6)
	}
}

func TestWANTransferTiming(t *testing.T) {
	c := vclock.New()
	f := New(c, WideAreaCluster(1), Idle, 1)
	src, _ := f.ByName("vienna00")
	dst, _ := f.ByName("linz00")
	var at vclock.Time
	c.Spawn("recv", func(a *vclock.Actor) {
		a.Get(dst.Inbox())
		at = a.Now()
	})
	c.Spawn("send", func(a *vclock.Actor) {
		src.Send(dst, 25_000, "wan") // 200 kbit over 2 Mbit/s = 100 ms
	})
	c.Run()
	want := 100*time.Millisecond + WANLatency
	if got := time.Duration(at); got != want {
		t.Fatalf("WAN delivery at %v, want %v", got, want)
	}
}
