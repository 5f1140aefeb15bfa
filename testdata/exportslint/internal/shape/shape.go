// Package shape declares the exports lint fixture's methods.
package shape

// Shape is selected by the caller; Square implements it.
type Shape interface{ Area() float64 }

// Square is reached only through Shape.
type Square struct{ Side float64 }

// Area is live: the caller selects Shape.Area.
func (s Square) Area() float64 { return s.Side * s.Side }

// Counter's Stats is selected directly.
type Counter struct{ n int }

func (c *Counter) Stats() int { return c.n }

// Stats is dead although Counter.Stats, which shares its name, is live.
func (s Square) Stats() int { return 0 }
