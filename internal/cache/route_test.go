package cache

import (
	"testing"

	"atum/internal/trace"
)

// routeModel is the routing rule written from the accessors, as route
// applied it before it read a table indexed by the header byte.
func routeModel(opts RunOptions, samp sampler, r trace.Word) (refOp, uint8) {
	var op refOp
	switch r.Kind() {
	case trace.KindCtxSwitch:
		return opSwitch, 0
	case trace.KindIFetch:
		op = opIFetch
	case trace.KindDRead:
		op = opRead
	case trace.KindDWrite:
		op = opWrite
	case trace.KindPTERead, trace.KindPTEWrite:
		if !opts.IncludePTE {
			return opNone, 0
		}
		op = opRead
		if r.Kind() == trace.KindPTEWrite {
			op = opWrite
		}
	default:
		return opNone, 0
	}
	if samp.skip(r.Addr()) {
		return opNone, 0
	}
	if r.Phys() || r.Addr()>>30 == 2 {
		return op, 0
	}
	return op, r.PID()
}

// TestRouteMatchesModel: for every header byte, with and without PTE
// references and set sampling, in every address space, route agrees
// with the accessor-written rule.
func TestRouteMatchesModel(t *testing.T) {
	for _, opts := range []RunOptions{{}, {IncludePTE: true}, {IncludePTE: true, SampleSets: 4, SampleOffset: 1}} {
		rt, err := newRouter(opts, 16)
		if err != nil {
			t.Fatal(err)
		}
		for h := range 256 {
			for _, addr := range []uint32{0x0000_1210, 0x0000_1230, 0x4000_1210, 0x8000_1250, 0xc000_1210} {
				w := trace.Word(h) | trace.Pack(trace.KindIFetch, addr, 1, 7, false, false, 0)
				if w.Header() != uint8(h) {
					t.Fatalf("header %#x: word %#x reads header %#x", h, uint64(w), w.Header())
				}
				gotOp, gotPID := rt.route(w)
				wantOp, wantPID := routeModel(opts, rt.samp, w)
				if gotOp != wantOp || gotPID != wantPID {
					t.Errorf("%+v, header %#x, addr %#x: route (%d, %d), model (%d, %d)", opts, h, addr, gotOp, gotPID, wantOp, wantPID)
				}
			}
		}
	}
}
