package compute

import (
	"fmt"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
)

// BenchmarkSetValueFanout times an edit of one input that n formulas read,
// 50 of them in the visible window, until SetValue returns; the background
// pass is drained outside the timer. ns/op divided by n is the cost per
// dependant the edit still pays before it returns.
func BenchmarkSetValueFanout(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			book := sheet.NewBook()
			book.AddSheet("Sheet1")
			e := New(book)
			e.SetValue("Sheet1", sheet.Addr(0, 0), sheet.Number(1))()
			for r := 1; r <= n; r++ {
				if _, err := e.SetFormula("Sheet1", sheet.Addr(r-1, 1), fmt.Sprintf("=$A$1*%d", r)); err != nil {
					b.Fatal(err)
				}
				// An unrelated formula per row, so the dependency index is
				// as large as the fan-out, as in a real workbook.
				if _, err := e.SetFormula("Sheet1", sheet.Addr(r-1, 3), fmt.Sprintf("=C%d+1", r)); err != nil {
					b.Fatal(err)
				}
			}
			e.Wait()
			e.SetVisibleProvider(func() map[string]sheet.Range {
				return map[string]sheet.Range{"Sheet1": sheet.RangeOf(0, 0, 49, 9)}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wait := e.SetValue("Sheet1", sheet.Addr(0, 0), sheet.Number(float64(i+2)))
				b.StopTimer()
				wait()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/dependant")
		})
	}
}
