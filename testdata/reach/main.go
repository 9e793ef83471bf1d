// Command reachfix is the reachability gate's fixture: the only program
// of its module.
package main

import (
	"fmt"

	"reachfix/internal/lib"
)

func main() {
	k := lib.Knob{Set: 1}
	k.Bump()
	fmt.Println(lib.Used(), k.Sum(), lib.Named(1))
}
