package parallel

import (
	"fmt"
	"testing"
	"time"
)

// spin busy-waits for d on the calling goroutine, so a task costs CPU
// time, not a sleep the scheduler could overlap with the fork.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkForkJoin measures what one fork-join costs: Map(2) over two
// tasks of a fixed length, at two workers. Serially the pair would take
// 2·task; ns/op minus task is the price of starting the helper and
// joining it. It is the evidence behind mat's parChunkFlops cutoff.
func BenchmarkForkJoin(b *testing.B) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	for _, task := range []time.Duration{0, 5 * time.Microsecond, 20 * time.Microsecond, 100 * time.Microsecond} {
		b.Run(fmt.Sprintf("task=%dus", task.Microseconds()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Map(2, func(int) { spin(task) })
			}
		})
	}
}
