// Command fixture is the exports lint's self-test module: it reaches
// Square.Area only through the Shape interface and selects Stats only on
// a Counter.
package main

import (
	"fmt"

	"fixture/internal/shape"
)

func main() {
	var s shape.Shape = shape.Square{Side: 2}
	c := &shape.Counter{}
	fmt.Println(s.Area(), c.Stats())
}
