// Package qbf implements a CEGAR-based 2QBF decision procedure for the
// module-matching question of Section II-D: given a candidate module C with
// word inputs X and side inputs Y, and a reference module C', is there an
// assignment to Y such that for every X the two modules agree?
//
// This is exactly the ∃Y∀X fragment the paper solves with DepQBF. The CEGAR
// loop alternates between a synthesis solver that proposes Y assignments
// consistent with all counterexamples seen so far, and a verification
// solver that searches for an X on which the proposal fails. Both
// directions are plain SAT queries over sat.Encoder Tseitin encodings of
// the two cones: the verification solver holds one shared copy, and the
// synthesis solver one LitOfFixed copy per counterexample.
package qbf

import (
	"context"

	"netlistre/internal/netlist"
	"netlistre/internal/sat"
)

// Result reports the outcome of a 2QBF solve.
type Result struct {
	// Found is true when an assignment to the existential signals was
	// proven correct for all universal assignments.
	Found bool
	// Assignment maps each existential signal to its synthesized value
	// (meaningful only when Found).
	Assignment map[netlist.ID]bool
	// Iterations is the number of CEGAR refinements performed.
	Iterations int
	// Aborted is true when MaxIterations was exhausted, a SAT conflict
	// budget ran out, or the context was canceled before a decision.
	Aborted bool
}

// interruptOf adapts a context to the SAT solver's polling hook. A
// context that can never be canceled maps to nil so the solver's hot
// loop pays nothing.
func interruptOf(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// conflictBudget bounds each SAT query inside the CEGAR loop; exhausting it
// aborts the solve (Result.Aborted) rather than stalling on a hard miter.
const conflictBudget = 500_000

// DefaultMaxIterations bounds the CEGAR loop; module-matching instances
// converge in a handful of refinements, so hitting this means the modules
// genuinely differ in a way that produces exponentially many Y candidates.
const DefaultMaxIterations = 256

// SolveForallEqualWord decides ∃Y ∀X . ∀i outs[i] == refs[i] over the
// netlist: a single Y assignment must make every bit pair agree, which is
// the word-level miter of Figure 3 (a one-bit word is the plain
// out == ref question). forall lists the universally quantified boundary
// signals (X, the word inputs), exists the existentially quantified ones
// (Y, the side inputs). A boundary signal in neither list is shared by all
// refinements like a Y signal, so a Found assignment works for every value
// of it. maxIter <= 0 selects DefaultMaxIterations. Canceling ctx aborts
// the CEGAR loop cooperatively (Result.Aborted).
func SolveForallEqualWord(ctx context.Context, nl *netlist.Netlist, outs, refs []netlist.ID, forall, exists []netlist.ID, maxIter int) Result {
	if len(outs) != len(refs) || len(outs) == 0 {
		return Result{}
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	interrupt := interruptOf(ctx)

	// Verification solver: shared encoding of both cones; each round fixes
	// Y via assumptions and asks for X with some out_i != ref_i.
	vs := sat.New()
	vs.MaxConflicts = conflictBudget
	vs.Interrupt = interrupt
	venc := sat.NewEncoder(vs, nl)
	// anyMiss <-> OR_i (out_i XOR ref_i).
	var missLits []sat.Lit
	for i := range outs {
		missLits = append(missLits, venc.NotEqualWitness(venc.LitOf(outs[i]), venc.LitOf(refs[i])))
	}
	anyMiss := sat.MkLit(vs.NewVar(), false)
	long := []sat.Lit{anyMiss.Neg()}
	for _, x := range missLits {
		vs.AddClause(anyMiss, x.Neg())
		long = append(long, x)
	}
	vs.AddClause(long...)

	// Synthesis solver: the existential signals are encoded first, so they
	// take its first variables; each counterexample adds a fresh copy of
	// every cone with X fixed to it.
	ss := sat.New()
	ss.MaxConflicts = conflictBudget
	ss.Interrupt = interrupt
	senc := sat.NewEncoder(ss, nl)
	for _, y := range exists {
		senc.LitOf(y)
	}
	cand := make(map[netlist.ID]bool, len(exists)) // all-false initial guess
	for _, y := range exists {
		cand[y] = false
	}

	for iter := 0; iter < maxIter; iter++ {
		if interrupt != nil && interrupt() {
			return Result{Iterations: iter, Aborted: true}
		}
		// Verify: any X with a mismatching bit under cand?
		assumptions := make([]sat.Lit, 0, len(exists)+1)
		for _, y := range exists {
			assumptions = append(assumptions, sat.MkLit(venc.LitOf(y).Var(), !cand[y]))
		}
		assumptions = append(assumptions, anyMiss)
		switch vs.Solve(assumptions...) {
		case sat.Unsat:
			return Result{Found: true, Assignment: cand, Iterations: iter}
		case sat.Unknown:
			return Result{Iterations: iter, Aborted: true}
		}

		// Refine: the synthesized Y must make every bit agree on X*.
		cex := make(map[netlist.ID]bool, len(forall))
		for _, x := range forall {
			if v, ok := venc.VarOf(x); ok {
				cex[x] = vs.Value(v)
			}
		}
		for i := range outs {
			so := senc.LitOfFixed(outs[i], cex)
			sr := senc.LitOfFixed(refs[i], cex)
			ss.AddClause(so.Neg(), sr)
			ss.AddClause(so, sr.Neg())
		}
		switch ss.Solve() {
		case sat.Unsat:
			return Result{Iterations: iter + 1}
		case sat.Unknown:
			return Result{Iterations: iter + 1, Aborted: true}
		}
		for _, y := range exists {
			v, _ := senc.VarOf(y)
			cand[y] = ss.Value(v)
		}
	}
	return Result{Iterations: maxIter, Aborted: true}
}
