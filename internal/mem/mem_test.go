package mem

import "testing"

func mustNew(t *testing.T, size, reserved uint32) *Physical {
	t.Helper()
	p, err := NewPhysical(size, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConstruction(t *testing.T) {
	if _, err := NewPhysical(0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewPhysical(1000, 0); err == nil {
		t.Error("non-page-multiple size accepted")
	}
	if _, err := NewPhysical(1<<20, 100); err == nil {
		t.Error("non-page-multiple reserved accepted")
	}
	if _, err := NewPhysical(1<<20, 2<<20); err == nil {
		t.Error("reserved > size accepted")
	}
	p := mustNew(t, 1<<20, 64<<10)
	if p.Size() != 1<<20 {
		t.Error("size")
	}
	if p.ReservedBase() != 1<<20-64<<10 {
		t.Error("reserved base")
	}
	if p.ReservedSize() != 64<<10 {
		t.Error("reserved size")
	}
	if p.Frames() != (1<<20-64<<10)/PageSize {
		t.Error("frames")
	}
}

func TestLoadStoreWidths(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if err := p.Store32(0x100, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load32(0x100); v != 0xDEADBEEF {
		t.Errorf("load32 %#x", v)
	}
	if v, _ := p.Load16(0x100); v != 0xBEEF {
		t.Errorf("load16 %#x", v)
	}
	if v, _ := p.Load8(0x103); v != 0xDE {
		t.Errorf("load8 %#x", v)
	}
	if err := p.Store16(0x200, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load16(0x200); v != 0x1234 {
		t.Error("store16")
	}
	if err := p.Store8(0x300, 0xAB); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Load8(0x300); v != 0xAB {
		t.Error("store8")
	}
	if err := p.Store64(0x400, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	if lo, _ := p.Load32(0x400); lo != 0x89ABCDEF {
		t.Errorf("store64 low longword %#x", lo)
	}
	if hi, _ := p.Load32(0x404); hi != 0x01234567 {
		t.Errorf("store64 high longword %#x", hi)
	}
}

func TestBounds(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if _, err := p.Load8(1 << 16); err == nil {
		t.Error("load8 out of bounds accepted")
	}
	if _, err := p.Load32(1<<16 - 2); err == nil {
		t.Error("straddling load32 accepted")
	}
	if err := p.Store32(0xFFFFFFFE, 1); err == nil {
		t.Error("wrapping store accepted")
	}
	if err := p.Store64(1<<16-4, 1); err == nil {
		t.Error("straddling store64 accepted")
	}
	if err := p.Store64(0xFFFFFFFC, 1); err == nil {
		t.Error("wrapping store64 accepted")
	}
	var be *BoundsError
	if _, err := p.Load32(1 << 20); err == nil {
		t.Error("no error")
	} else if be, _ = err.(*BoundsError); be == nil || be.PA != 1<<20 {
		t.Errorf("error detail: %v", err)
	}
	if be.Error() == "" {
		t.Error("empty error string")
	}
}

func TestConsole(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if err := p.Store8(ConsoleTX, 'h'); err != nil {
		t.Fatal(err)
	}
	if err := p.Store32(ConsoleTX, 'i'); err != nil {
		t.Fatal(err)
	}
	if string(p.Console()) != "hi" {
		t.Errorf("console %q", p.Console())
	}
	p.ResetConsole()
	if len(p.Console()) != 0 {
		t.Error("reset failed")
	}
}

func TestLoadBytesAndView(t *testing.T) {
	p := mustNew(t, 1<<16, 0)
	if err := p.LoadBytes(0x400, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, err := p.Bytes(0x400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[2] != 3 {
		t.Error("view content")
	}
	if err := p.LoadBytes(1<<16-1, []byte{1, 2}); err == nil {
		t.Error("overflowing LoadBytes accepted")
	}
	if _, err := p.Bytes(1<<16-1, 2); err == nil {
		t.Error("overflowing Bytes accepted")
	}
}

// TestFreshRAMReadsZero: new RAM reads zero at the first and last byte of
// every 64 KB and throughout the reserved region, and every accessor
// past the end fails with the same BoundsError wherever RAM lives.
func TestFreshRAMReadsZero(t *testing.T) {
	const size, reserved = 8 << 20, 512 << 10
	p := mustNew(t, size, reserved)
	for pa := uint32(0); pa < size; pa += 64 << 10 {
		for _, a := range []uint32{pa, pa + 64<<10 - 1} {
			if v, err := p.Load8(a); err != nil || v != 0 {
				t.Fatalf("byte %#x: %#x, %v", a, v, err)
			}
		}
	}
	for pa := p.ReservedBase(); pa < size; pa += 4 {
		if v, err := p.Load32(pa); err != nil || v != 0 {
			t.Fatalf("reserved longword %#x: %#x, %v", pa, v, err)
		}
	}
	bounds := []struct {
		name string
		err  error
		pa   uint32
		size int
	}{
		{"Load8", second(p.Load8(size)), size, 1},
		{"Load16", second(p.Load16(size - 1)), size - 1, 2},
		{"Load32", second(p.Load32(size - 2)), size - 2, 4},
		{"Store8", p.Store8(size, 1), size, 1},
		{"Store16", p.Store16(0xFFFFFFFF, 1), 0xFFFFFFFF, 2},
		{"Store32", p.Store32(size-3, 1), size - 3, 4},
		{"Store64", p.Store64(size-4, 1), size - 4, 8},
		{"LoadBytes", p.LoadBytes(size-1, []byte{1, 2}), size - 1, 2},
		{"Bytes", second(p.Bytes(size-1, 2)), size - 1, 2},
	}
	for _, b := range bounds {
		be, ok := b.err.(*BoundsError)
		if !ok || be.PA != b.pa || be.Size != b.size {
			t.Errorf("%s: error %v, want a BoundsError at %#x size %d", b.name, b.err, b.pa, b.size)
		}
	}
}

func second[T any](_ T, err error) error { return err }
