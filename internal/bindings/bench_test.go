package bindings

import (
	"fmt"
	"testing"

	"gcore/internal/value"
)

func benchTables(n int) (*Table, *Table) {
	a := EmptyTable("x", "y")
	b := EmptyTable("y", "z")
	for i := 0; i < n; i++ {
		appendRef(a, row("x", value.Int(int64(i)), "y", value.Int(int64(i%(n/4)))))
		appendRef(b, row("y", value.Int(int64(i%(n/4))), "z", value.Str("v")))
	}
	return a, b
}

func BenchmarkJoin(b *testing.B) {
	for _, n := range []int{100, 1000} {
		a, t := benchTables(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if Join(a, t).Len() == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}

func BenchmarkLeftJoin(b *testing.B) {
	a, t := benchTables(1000)
	for i := 0; i < b.N; i++ {
		if leftJoin(a, t).Len() == 0 {
			b.Fatal("empty join")
		}
	}
}
