package main

import "fmt"

// grid is a rows×cols grid with vertex r*cols+c, built here rather than
// taken from the program so that the output checks do not trust the
// graph code they check (TestGridMatchesProgram pins the numbering).
type grid struct{ rows, cols int }

func (g grid) n() int { return g.rows * g.cols }

// neighbors appends v's grid neighbors to buf.
func (g grid) neighbors(v int, buf []int) []int {
	r, c := v/g.cols, v%g.cols
	if r > 0 {
		buf = append(buf, v-g.cols)
	}
	if c > 0 {
		buf = append(buf, v-1)
	}
	if c+1 < g.cols {
		buf = append(buf, v+1)
	}
	if r+1 < g.rows {
		buf = append(buf, v+g.cols)
	}
	return buf
}

func (g grid) checkLen(x []int) error {
	if len(x) != g.n() {
		return fmt.Errorf("sample has %d spins, want %d", len(x), g.n())
	}
	return nil
}

// checkColoring accepts x only if it is a proper q-coloring of g.
func checkColoring(g grid, q int, x []int) error {
	if err := g.checkLen(x); err != nil {
		return err
	}
	var nb []int
	for v, cv := range x {
		if cv < 0 || cv >= q {
			return fmt.Errorf("vertex %d has color %d outside [0,%d)", v, cv, q)
		}
		nb = g.neighbors(v, nb[:0])
		for _, u := range nb {
			if x[u] == cv {
				return fmt.Errorf("edge %d-%d is monochromatic (color %d)", v, u, cv)
			}
		}
	}
	return nil
}

// checkIndependent accepts x only if its 1-spins form an independent
// set of g (the hardcore model's support).
func checkIndependent(g grid, x []int) error {
	if err := checkBinary(g, x); err != nil {
		return err
	}
	var nb []int
	for v := range x {
		if x[v] == 0 {
			continue
		}
		nb = g.neighbors(v, nb[:0])
		for _, u := range nb {
			if x[u] == 1 {
				return fmt.Errorf("edge %d-%d has both ends occupied", v, u)
			}
		}
	}
	return nil
}

// checkDominating accepts x only if every vertex is in the 1-set or has
// a neighbor in it.
func checkDominating(g grid, x []int) error {
	if err := checkBinary(g, x); err != nil {
		return err
	}
	var nb []int
	for v := range x {
		if x[v] == 1 {
			continue
		}
		dominated := false
		nb = g.neighbors(v, nb[:0])
		for _, u := range nb {
			if x[u] == 1 {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("vertex %d is not dominated", v)
		}
	}
	return nil
}

func checkBinary(g grid, x []int) error {
	if err := g.checkLen(x); err != nil {
		return err
	}
	for v, s := range x {
		if s != 0 && s != 1 {
			return fmt.Errorf("vertex %d has spin %d, want 0 or 1", v, s)
		}
	}
	return nil
}

// checkSame accepts got only if it equals the reference draw spin for
// spin.
func checkSame(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("sample has %d spins, reference %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("spin %d is %d, reference has %d", v, got[v], want[v])
		}
	}
	return nil
}
