package main

import (
	"strings"
	"testing"
)

// want is the walkthrough's full output: the Figure 2 outputs evaluate to
// D̄ under c=0, and propagation from u finds 5 words in 7 steps.
const want = `circuit: w_i = c ? ~v_i : ~u_i   (Figure 2 of the paper)

with u=D,D,D and c=0 the outputs evaluate to:
  w1 = D̄
  w2 = D̄
  w3 = D̄
all outputs are D̄: the negated value of u propagates to w when c=0

automated propagation from the seed word u discovered 5 words:
  seed                   bits=[1 2 3]
  propagated             bits=[7 8 9]
  propagated             bits=[15 18 21]
  propagated             bits=[16 19 22]
  propagated-backward    bits=[14 17 20]

propagation steps (with discovered control assignments):
  [1 2 3] -> [7 8 9]  [forward, controls map[]]
  [7 8 9] -> [15 18 21]  [forward, controls map[0:false]]
  [1 2 3] -> [7 8 9]  [backward, controls map[]]
  [15 18 21] -> [16 19 22]  [forward, controls map[0:false]]
  [7 8 9] -> [15 18 21]  [backward, controls map[0:false]]
  [14 17 20] -> [16 19 22]  [backward, controls map[0:true]]
  [15 18 21] -> [16 19 22]  [backward, controls map[0:false]]
`

func TestWalkthroughOutput(t *testing.T) {
	var b strings.Builder
	run(&b)
	if got := b.String(); got != want {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, want)
	}
}
