package nas

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/rmi/wire"
)

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot decoder and
// at the report's check, as a snapshot body, as a report body and as a
// bare snapshot payload: success or a typed error, never a panic.  A
// snapshot that decodes re-encodes to bytes that decode to the same
// snapshot, and holds only cataloged parameters of their catalog kind.
// A report whose snapshot is the bare payload passes its check exactly
// when the payload decodes as a snapshot, and its checked bytes decode
// later to that snapshot.  The seeds are the heartbeat golden's bodies
// and the bare payload of its "get" reply.  They are over a kilobyte,
// so minimizing an input that finds new coverage takes a while: a short
// run wants a small -fuzzminimizetime.
func FuzzSnapshotDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/heartbeat_golden.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		body, err := hex.DecodeString(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		if strings.HasPrefix(line, "params.Snapshot ") {
			d := wire.NewDec(body)
			d.Byte()
			d.Byte()
			d.Bytes()
			f.Add(d.Bytes())
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, into := range []any{new(params.Snapshot), new(reportMsg)} {
			if err := rmi.Unmarshal(data, into); err != nil {
				if !errors.Is(err, rmi.ErrCodec) {
					t.Fatalf("%T: untyped decode error %v", into, err)
				}
				continue
			}
			switch v := into.(type) {
			case *params.Snapshot:
				checkSnapshot(t, *v)
			case *reportMsg:
				checkSnapshot(t, v.Snap.decode())
			}
		}

		var snap params.Snapshot
		var report reportMsg
		snapErr := rmi.Unmarshal(namedBody("params.Snapshot", data), &snap)
		reportErr := rmi.Unmarshal(namedBody("nas.reportMsg", append(wire.AppendString(nil, "n1"), data...)), &report)
		for _, err := range []error{snapErr, reportErr} {
			if err != nil && !errors.Is(err, rmi.ErrCodec) {
				t.Fatalf("untyped decode error %v", err)
			}
		}
		if (snapErr == nil) != (reportErr == nil) {
			t.Fatalf("snapshot decode: %v; report check: %v", snapErr, reportErr)
		}
		if snapErr != nil {
			return
		}
		checkSnapshot(t, snap)
		if got := report.Snap.decode(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("the report's checked bytes decode to\n%v\nnot\n%v", got, snap)
		}
	})
}

// checkSnapshot fails t unless s holds only cataloged parameters of
// their kind (setting each into a fresh snapshot panics otherwise) and
// s's encoding decodes to a snapshot that encodes alike.
func checkSnapshot(t *testing.T, s params.Snapshot) {
	fresh := params.NewSnapshot()
	for _, id := range s.IDs() {
		v, _ := s.Get(id)
		if v.Kind == params.String {
			fresh.SetText(id, v.Str)
		} else {
			fresh.SetFloat(id, v.Num)
		}
	}
	body, err := rmi.Marshal(s)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var back params.Snapshot
	if err := rmi.Unmarshal(body, &back); err != nil {
		t.Fatalf("decode of a re-encoded snapshot: %v", err)
	}
	if again := rmi.MustMarshal(back); !bytes.Equal(again, body) {
		t.Fatalf("snapshot moved across a round trip:\n %x\n %x", body, again)
	}
}
