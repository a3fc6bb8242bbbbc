// Codec micro-benchmarks: the wire codec against encoding/gob on the hottest
// message type, RenewBatchReq, at singleton, one-batch and storm sizes. No
// fabric uses gob any more; its side is kept as a reference number, measured
// the way the fabrics used it — a fresh encoder/decoder per message, so type
// descriptors are re-sent every time. Run with:
//
//	go test -run '^$' -bench WireCodec -benchmem ./internal/wire/
package wire_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// benchRenewBatch builds an n-lease renewal batch with realistic lease IDs.
func benchRenewBatch(n int) core.RenewBatchReq {
	req := core.RenewBatchReq{Items: make([]core.RenewExtReq, n)}
	for i := range req.Items {
		req.Items[i] = core.RenewExtReq{
			LeaseID:   fmt.Sprintf("node-%05d-L%d", i, i%7),
			DurMillis: 60_000,
		}
	}
	return req
}

var benchSizes = []int{1, 64, 1024}

func BenchmarkWireCodecEncode(b *testing.B) {
	for _, n := range benchSizes {
		req := benchRenewBatch(n)
		b.Run(fmt.Sprintf("renewBatch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = wire.Marshal(req)
			}
		})
	}
}

func BenchmarkWireCodecDecode(b *testing.B) {
	for _, n := range benchSizes {
		data := wire.Marshal(benchRenewBatch(n))
		b.Run(fmt.Sprintf("renewBatch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out core.RenewBatchReq
				if err := wire.Unmarshal(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gobEncode gob-encodes v with a fresh encoder.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func BenchmarkGobCodecEncode(b *testing.B) {
	for _, n := range benchSizes {
		req := benchRenewBatch(n)
		b.Run(fmt.Sprintf("renewBatch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gobEncode(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGobCodecDecode(b *testing.B) {
	for _, n := range benchSizes {
		data, err := gobEncode(benchRenewBatch(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("renewBatch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out core.RenewBatchReq
				if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
