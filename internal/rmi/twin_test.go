package rmi

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// stationTwinScenario runs concurrent Calls and Posts between three
// stations of the fabric cell and returns its trace of (virtual time,
// proc, result), closed by every station's Stats.  Station node00 retries
// with room for its resends of a slow request to be deduped and
// answered; node01 and node02 do not retry, and their calls to the slow
// method time out before the response arrives, which then lands as a
// stale response.  jitter, when non-nil,
// runs before and after every station call made by a handler or caller.
func stationTwinScenario(jitter func()) []string {
	j := func() {
		if jitter != nil {
			jitter()
		}
	}
	w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 3))
	names := nodeNames(3)
	var trace []string // appended only by the holder of the run token
	rec := func(who, format string, args ...any) {
		j()
		now := w.s.Now()
		trace = append(trace, fmt.Sprintf("%v %s %s", now, who, fmt.Sprintf(format, args...)))
	}
	sts := make([]*Station, len(names))
	for i, node := range names {
		ep, err := w.net.Attach(node)
		if err != nil {
			panic(err)
		}
		st := NewStation(w.s, ep)
		st.Register("svc", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
			j()
			switch method {
			case "echo":
				p.Sleep(time.Duration(1+len(body)%4) * 100 * time.Microsecond)
				j()
				return body, nil
			case "slow": // slower than any attempt timeout below
				p.Sleep(25 * time.Millisecond)
				j()
				return body, nil
			case "fail":
				return nil, errors.New("boom")
			case "note":
				rec(node, "note from %s %q", from, body)
				return nil, nil
			}
			return nil, fmt.Errorf("unknown method %q", method)
		})
		st.Start()
		sts[i] = st
	}
	sts[0].SetPolicy(Policy{AttemptTimeout: 10 * time.Millisecond, Retries: 4, Backoff: 2 * time.Millisecond})

	const callers = 6
	done := w.s.NewQueue("done")
	for c := 0; c < callers; c++ {
		who := fmt.Sprintf("caller%d", c)
		from, to := sts[c%3], names[(c+1)%3]
		w.spawn(who, func(p sched.Proc) {
			for k := 0; k < 8; k++ {
				method := []string{"echo", "echo", "note", "slow", "echo", "fail", "note", "echo"}[(k+c)%8]
				body := []byte(strings.Repeat("x", k+c))
				j()
				if method == "note" {
					err := from.Post(p, to, "svc", method, body)
					j()
					rec(who, "post %s: %v", to, err)
					continue
				}
				timeout := 15*time.Millisecond + time.Duration(c)*time.Millisecond
				if from == sts[0] {
					timeout = 60 * time.Millisecond // room for retries
				}
				got, err := from.Call(p, to, "svc", method, body, timeout)
				j()
				rec(who, "call %s.%s: %q %v", to, method, got, err)
			}
			done.Put(who, 0)
		})
	}
	w.spawn("closer", func(p sched.Proc) {
		for c := 0; c < callers; c++ {
			j()
			p.Recv(done)
		}
		j()
		p.Sleep(100 * time.Millisecond) // every late response has landed
		for i, st := range sts {
			rec("closer", "%s %+v", names[i], st.Stats())
			st.Close()
		}
	})
	w.join()
	return trace
}

// TestStationPerturbedTwin checks that the station's actor bodies keep a
// simulation a function of its inputs: the same scenario, run again with
// seeded Gosched calls and sub-millisecond real sleeps around every
// station call of its handlers and callers, at GOMAXPROCS 1 and 8, gives
// the same trace.
func TestStationPerturbedTwin(t *testing.T) {
	want := stationTwinScenario(nil)
	all := strings.Join(want, "\n")
	for _, cover := range []string{"call timed out", "remote error", "note from", `slow: "x+" <nil>`, "Retries:[1-9]", "Dups:[1-9]", "Stale:[1-9]"} {
		if !regexp.MustCompile(cover).MatchString(all) {
			t.Fatalf("scenario lost its coverage: no %q in\n%s", cover, all)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(int64(procs)))
		got := stationTwinScenario(func() {
			mu.Lock()
			n, us := rng.Intn(8), rng.Intn(500)
			mu.Unlock()
			switch {
			case n == 0:
				time.Sleep(time.Duration(us) * time.Microsecond)
			case n < 4:
				runtime.Gosched()
			}
		})
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d trace lines, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d: trace differs at line %d: %q, want %q", procs, i, got[i], want[i])
			}
		}
	}
}
