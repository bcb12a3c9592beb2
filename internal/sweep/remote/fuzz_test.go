package remote

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/infotheory"
)

// pipeRecv feeds data to (*wire).recv through net.Pipe and returns what
// recv made of it. The writer's end is closed after data, and the
// reader's end after recv returns, so a write recv never consumed is
// released instead of leaking the writer goroutine.
func pipeRecv(data []byte) (*frame, error) {
	r, w := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Write(data)
		w.Close()
	}()
	f, err := newWire(r).recv()
	r.Close()
	<-done
	return f, err
}

// FuzzRecvFrame feeds arbitrary bytes to the frame reader: it must
// return a frame or an error, never panic, and a length prefix above
// maxFrameBytes must be rejected from the header alone, before the
// payload buffer is allocated or read.
func FuzzRecvFrame(f *testing.F) {
	for _, fr := range []*frame{
		{Type: msgSpec, Index: 3, ID: "run-3", SpecJSON: []byte(`{"version":1}`)},
		{Type: msgResult, Result: &wireResult{
			Name: "fig8", Times: []int{0, 10}, MI: []float64{0.5, 1.25},
			Decomp: []infotheory.Decomposition{{Between: 0.25, Within: []float64{0.1}}},
			Labels: []int{0, 1},
		}, FromCheckpoint: true},
		{Type: msgError, Error: "boom"},
		{Type: msgProgress, Event: &experiment.ProgressEvent{}},
	} {
		r, w := net.Pipe()
		go func() {
			newWire(w).send(fr)
			w.Close()
		}()
		seed, err := io.ReadAll(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBytes+1))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<32-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := pipeRecv(data)
		if (fr == nil) == (err == nil) {
			t.Fatalf("recv returned frame %v and error %v; want exactly one", fr, err)
		}
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrameBytes {
			if err == nil || !strings.Contains(err.Error(), "exceeds cap") {
				t.Fatalf("length prefix %d above the cap: err = %v", binary.BigEndian.Uint32(data), err)
			}
		}
	})
}
