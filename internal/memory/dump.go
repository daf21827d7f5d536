package memory

import (
	"fmt"
	"io"
)

// Dump writes a canonical hex dump of every region to w: 16 bytes per
// line with a region header, for debugging injected state and
// post-mortem inspection of experiment runs (cmd/arrest -dump).
func (m *Memory) Dump(w io.Writer) error {
	for _, r := range m.specs {
		if _, err := fmt.Fprintf(w, "region %q: 0x%04x..0x%04x (%d bytes)\n",
			r.Name, r.Base, r.End()-1, r.Size); err != nil {
			return err
		}
		lo := int(r.Base) - int(m.base)
		data := m.data[lo : lo+int(r.Size)]
		for off := 0; off < len(data); off += 16 {
			end := min(off+16, len(data))
			if _, err := fmt.Fprintf(w, "  %04x:", int(r.Base)+off); err != nil {
				return err
			}
			for i := off; i < end; i++ {
				if _, err := fmt.Fprintf(w, " %02x", data[i]); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
