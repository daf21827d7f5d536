package stream

import "fmt"

// Inline is the reference observer for the equivalence guarantee: it
// applies the same wire payloads through the same streamState path as
// the service, but single-goroutine and in strict arrival order, the
// way an inline monitor suite embedded in the plant node would see the
// samples. cmd/sigmon replays a trace into both a Service and an
// Inline and diffs the canonicalized detections byte for byte.
type Inline struct {
	maxStreams uint32
	streams    map[uint32]*streamState
	sink       *detSink
}

// NewInline builds a reference observer over an in-memory journal.
func NewInline(maxStreams int) *Inline {
	if maxStreams <= 0 {
		maxStreams = 1024
	}
	sink, _ := newDetSink("", 0) // in-memory sinks cannot fail to open
	return &Inline{
		maxStreams: uint32(maxStreams),
		streams:    make(map[uint32]*streamState),
		sink:       sink,
	}
}

// Ingest validates and applies one payload, all-or-nothing on
// validation errors, exactly like Service.Ingest — but synchronously:
// when it returns, every sample has been tested.
func (in *Inline) Ingest(payload []byte) error {
	maxID := in.maxStreams
	if err := walkBatches(payload, func(recs []byte) error {
		for off := 0; off < len(recs); off += RecordBytes {
			if id := be32(recs[off:]); id >= maxID {
				return fmt.Errorf("stream: stream ID %d out of range (max %d)", id, maxID-1)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return walkBatches(payload, func(recs []byte) error {
		for off := 0; off < len(recs); off += RecordBytes {
			rec := recs[off : off+RecordBytes]
			id := be32(rec)
			st := in.streams[id]
			if st == nil {
				var err error
				if st, err = newStreamState(id, in.sink); err != nil {
					return err
				}
				in.streams[id] = st
			}
			st.apply(rec)
		}
		return nil
	})
}

// Detections returns every detection line so far.
func (in *Inline) Detections() ([]byte, error) {
	if err := in.sink.flush(); err != nil {
		return nil, err
	}
	return in.sink.snapshot()
}
