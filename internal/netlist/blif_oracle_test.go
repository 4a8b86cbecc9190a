package netlist

// The previous BLIF reader, kept as a test oracle for the in-place one: a
// bufio.Scanner with a 1 MiB line buffer, a slice of joined lines, and a
// build closure over name maps with a fresh trail map per root.
// FuzzReadBLIF feeds the same text to both.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// oracleReadBLIF is the previous ReadBLIFOpts.
func oracleReadBLIF(r io.Reader, opt BLIFOptions) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	type cover struct {
		inputs []string
		out    string
		cubes  []string // input-plane rows
		outVal byte     // '1' or '0'
		lut    bool     // .names carried the "# lut" marker
	}
	type latchDecl struct{ d, q string }

	var model string
	var inputs, outputs []string
	var covers []cover
	var latches []latchDecl
	var cur *cover

	flush := func() {
		if cur != nil {
			covers = append(covers, *cur)
			cur = nil
		}
	}

	// Join continuation lines ending in '\'. The "# lut" marker WriteBLIF
	// appends to Lut covers is consumed here, before general comment
	// stripping.
	type srcLine struct {
		text string
		lut  bool
	}
	var lines []srcLine
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		lut := false
		if i := strings.Index(line, "#"); i >= 0 {
			lut = strings.TrimSpace(line[i+1:]) == "lut"
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		for strings.HasSuffix(line, "\\") && sc.Scan() {
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(sc.Text())
		}
		lines = append(lines, srcLine{text: line, lut: lut})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for _, ln := range lines {
		line := ln.text
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				model = fields[1]
			}
		case ".inputs":
			flush()
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			flush()
			outputs = append(outputs, fields[1:]...)
		case ".latch":
			flush()
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: malformed .latch %q", line)
			}
			latches = append(latches, latchDecl{d: fields[1], q: fields[2]})
		case ".names":
			flush()
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: malformed .names %q", line)
			}
			cur = &cover{
				inputs: fields[1 : len(fields)-1],
				out:    fields[len(fields)-1],
				outVal: '1',
				lut:    ln.lut,
			}
		case ".end":
			flush()
		default:
			if fields[0][0] == '.' {
				return nil, fmt.Errorf("blif: unsupported construct %q", fields[0])
			}
			if cur == nil {
				return nil, fmt.Errorf("blif: cover row outside .names: %q", line)
			}
			switch len(fields) {
			case 1:
				if len(cur.inputs) != 0 {
					return nil, fmt.Errorf("blif: missing input plane in %q", line)
				}
				cur.cubes = append(cur.cubes, "")
				cur.outVal = fields[0][0]
			case 2:
				if len(fields[0]) != len(cur.inputs) {
					return nil, fmt.Errorf("blif: cube width mismatch in %q", line)
				}
				cur.cubes = append(cur.cubes, fields[0])
				cur.outVal = fields[1][0]
			default:
				return nil, fmt.Errorf("blif: malformed cover row %q", line)
			}
		}
	}
	flush()

	n := New(model)
	ids := make(map[string]ID)
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %q", in)
		}
		ids[in] = n.AddInput(in)
	}
	// Latches first (feedback), patched later.
	for _, l := range latches {
		if _, dup := ids[l.q]; dup {
			return nil, fmt.Errorf("blif: latch output %q already driven", l.q)
		}
		ids[l.q] = n.AddNamedLatch(l.q, Nil) // D patched after covers build
	}

	coverOf := make(map[string]*cover, len(covers))
	for i := range covers {
		c := &covers[i]
		if _, dup := coverOf[c.out]; dup {
			return nil, fmt.Errorf("blif: net %q driven by two covers", c.out)
		}
		coverOf[c.out] = c
	}

	var build func(net string, trail map[string]bool) (ID, error)
	build = func(net string, trail map[string]bool) (ID, error) {
		if id, ok := ids[net]; ok {
			return id, nil
		}
		if trail[net] {
			return Nil, fmt.Errorf("blif: combinational cycle through %q", net)
		}
		trail[net] = true
		defer delete(trail, net)
		c, ok := coverOf[net]
		if !ok {
			return Nil, fmt.Errorf("blif: net %q has no driver", net)
		}
		fan := make([]ID, len(c.inputs))
		for i, in := range c.inputs {
			fid, err := build(in, trail)
			if err != nil {
				return Nil, err
			}
			fan[i] = fid
		}
		id, err := buildCoverGate(n, c.cubes, c.outVal, fan, c.lut, opt)
		if err != nil {
			return Nil, fmt.Errorf("blif: cover for %q: %w", net, err)
		}
		n.SetName(id, net)
		ids[net] = id
		return id, nil
	}

	var nets []string
	for net := range coverOf {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	for _, net := range nets {
		if _, err := build(net, map[string]bool{}); err != nil {
			return nil, err
		}
	}
	for _, l := range latches {
		d, err := build(l.d, map[string]bool{})
		if err != nil {
			return nil, err
		}
		n.SetLatchD(ids[l.q], d)
	}
	for _, out := range outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %q has no driver", out)
		}
		n.MarkOutput(out, id)
	}
	return n, nil
}
