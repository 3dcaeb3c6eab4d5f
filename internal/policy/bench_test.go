package policy

import "testing"

// firstInSink keeps the benchmarked Victim results live.
var firstInSink int

// BenchmarkFirstIn times Victim for each policy on a 16-way set state left
// by a mixed workload, with masks of one, a few and all ways: the first
// way of a candidate class, and the baseline victim of a full set.
func BenchmarkFirstIn(b *testing.B) {
	const sets, ways = 64, 16
	stream := make([]uint64, 4096)
	for i := range stream {
		stream[i] = uint64(i*7) % 256
	}
	masks := [...]uint64{1 << 15, 0x8421, 0x0ff0, 0xffff}
	for _, np := range allPolicies(NewStreamOracle(stream)) {
		b.Run(np.name, func(b *testing.B) {
			p := np.mk()
			exercise(p, sets, ways, 1, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				firstInSink = p.Victim(i%sets, masks[i%len(masks)])
			}
		})
	}
}
