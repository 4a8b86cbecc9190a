package bdd

import "testing"

// BenchmarkAdderEquivalence builds two n-bit adder BDD vectors and checks
// equality — the canonical BDD stress pattern.
func BenchmarkAdderEquivalence(b *testing.B) {
	const n = 12
	for i := 0; i < b.N; i++ {
		m := New(2 * n)
		carry1, carry2 := False, False
		for j := 0; j < n; j++ {
			a, x := m.Var(j), m.Var(n+j)
			s1 := m.Xor(m.Xor(a, x), carry1)
			carry1 = m.Or(m.And(a, x), m.And(carry1, m.Xor(a, x)))
			s2 := m.Xor(a, m.Xor(x, carry2))
			carry2 = m.Or(m.Or(m.And(a, x), m.And(x, carry2)), m.And(carry2, a))
			if s1 != s2 {
				b.Fatal("adder sums differ")
			}
		}
		if carry1 != carry2 {
			b.Fatal("carries differ")
		}
	}
}
