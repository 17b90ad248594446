package kernel

import (
	"bytes"
	"testing"

	"atum/internal/mem"
)

// TestImageLoadMatchesImage: loading the kernel image into fresh RAM
// copies only its nonzero chunks, yet RAM over the image's range then
// reads exactly the image.
func TestImageLoadMatchesImage(t *testing.T) {
	img, err := image()
	if err != nil {
		t.Fatal(err)
	}
	if n := (len(img.prog.Bytes) + imageChunk - 1) / imageChunk; len(img.chunks) >= n {
		t.Errorf("all %d chunks of the image load; want its zero chunks skipped", n)
	}
	ram, err := mem.NewPhysical(DefaultConfig().Machine.MemSize, DefaultConfig().Machine.ReservedSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.load(ram); err != nil {
		t.Fatal(err)
	}
	got, err := ram.Bytes(0, uint32(len(img.prog.Bytes)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img.prog.Bytes) {
		t.Error("RAM over the kernel image's range differs from the image")
	}
}
