// Package numeric provides the numerical substrate used throughout beqos:
// one bracketed root solve (Root: double the bracket, then Brent),
// maximization, adaptive quadrature, compensated summation, and the special
// functions (Hurwitz zeta, the W₋₁ branch of Lambert W) needed by the
// analytical model of Breslau & Shenker (SIGCOMM 1998).
//
// Go's standard library has no scientific-computing package, so this package
// implements the small, well-understood subset the model needs. All routines
// are deterministic, allocation-light, and validated against closed-form
// identities in the package tests.
package numeric
