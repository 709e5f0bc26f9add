//go:build amd64

package main

import (
	"bytes"
	"fmt"
	"strings"
)

// The output below is the temperature z-score chart and the
// power-on-hours table, computed from group statistics. The chart pads
// its lines, which an Output comment cannot hold, so the example prints
// the report with trailing blanks trimmed. It is pinned on amd64 only:
// arm64 may fuse a multiply and an add, which can move a rounded value or
// a plotted point.
func Example() {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		fmt.Println(err)
		return
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// Temperature z-scores (x = hours before failure; lower = hotter than good drives)
	//    -0.9198 +
	//            |              o   o o o ooooo  oooo o oo  oo                   oo oooo o
	//            |ooooo ooooo oo oo  o o        o      o  o   ooo ooooo ooooo ooo
	//            |
	//            |                               ++ + +++++ +++++ ++++           ++ ++++ +
	//            |                   +++  +++++ +  +                  + +++++ +++
	//            |+ ++  +++++ +++++ +   +
	//            | +  +                                                              *   *
	//            |                                                             **** * **
	//            |                                                    *   *** *
	//            |                                      *** ***** ****  **
	//            |             **** ***** ***** ***** **
	//            |         ** *
	//            |* *** ***
	//            | *
	//      -12.6 +------------------------------------------------------------------------
	//             x: 0 .. 472
	//             * = group 1
	//             o = group 2
	//             + = group 3
	//
	// hottest failure group: Group 1 (logical failures), mean z = -9.9
	// => temperature is the leading environmental factor for logical failures;
	//    thermal-aware placement and drive cooling target the largest failure category.
	//
	// Power-on-hours z-scores by group
	// Group  Type             Mean z
	// -----  ---------------  ------
	// 1      logical          -2.218
	// 2      bad-sector       -2.079
	// 3      read/write-head  -25.36
	//
	// oldest failure group: Group 3 (read/write-head failures), mean z = -25.4
	// => prioritize backups for aged drives to blunt head-failure data loss.
}
