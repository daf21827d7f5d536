package memory

import "fmt"

// Image is a reusable point-in-time copy of a Memory's contents: its
// whole span, the paper's 417-byte application RAM and 1008-byte stack
// and the gap between them, as one flat buffer. An Image is captured
// into and restored from in place, so the fast-forward engine's
// per-error restore performs no heap allocation: the first Capture
// sizes the buffer, every later Capture and Restore is one copy.
//
// The zero value is ready for Capture.
type Image struct {
	data []byte
}

// Len returns the total number of captured bytes (zero before the
// first Capture).
func (img *Image) Len() int { return len(img.data) }

// Capture copies the full memory contents into the image, growing the
// buffer only on first use (or when the span grew).
func (m *Memory) Capture(img *Image) {
	img.data = append(img.data[:0], m.data...)
}

// RestoreImage copies a captured image back into the memory. The image
// must come from a memory with the same region layout.
func (m *Memory) RestoreImage(img *Image) error {
	if len(img.data) != len(m.data) {
		return fmt.Errorf("memory: image holds %d bytes, memory spans %d", len(img.data), len(m.data))
	}
	copy(m.data, img.data)
	return nil
}

// ImageByteAt returns the byte at addr in an image captured from m.
func (m *Memory) ImageByteAt(img *Image, addr uint16) (byte, error) {
	off := m.offset(addr, 1)
	if off < 0 || off >= len(img.data) {
		return 0, errRange(addr, 1)
	}
	return img.data[off], nil
}
