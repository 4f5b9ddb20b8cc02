package lineproto

import (
	"fmt"
	"testing"

	"repro/internal/tsdb"
)

// benchSink interns against a real store and discards the enqueued
// batches — isolating parse + intern cost from queue and HTTP
// machinery.
type benchSink struct {
	db   *tsdb.DB
	refs int
}

func (s *benchSink) Intern(metric []byte, kvs [][]byte) (*tsdb.Ref, error) {
	return s.db.InternBytes(metric, kvs)
}

func (s *benchSink) EnqueueRefs(rps []tsdb.RefPoint) error {
	s.refs += len(rps)
	return nil
}

// BenchmarkParsePutLine measures the zero-copy telnet put parse: raw
// line bytes → split fields → interned series → RefPoint. After the
// first lap over the 16 sensors every iteration is a registry hit —
// no strings, no tag map, no allocation.
func BenchmarkParsePutLine(b *testing.B) {
	db, err := tsdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	sink := &benchSink{db: db}
	s := New(sink, Config{})
	st := &connState{}
	lines := make([][]byte, 16)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("put air.co2 1488326400 415.5 sensor=n%02d city=trondheim", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.parsePutFast(lines[i%len(lines)], st); err != nil {
			b.Fatal(err)
		}
		if len(st.refs) == cap(st.refs) && len(st.refs) >= 128 {
			st.refs = st.refs[:0]
		}
	}
}
