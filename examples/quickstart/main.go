// Quickstart: assemble a small program, run it on the out-of-order
// simulator with ProfileMe instruction sampling, and print the profile —
// the smallest end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"profileme/internal/asm"
	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/profile"
	"profileme/internal/runner"
)

// A toy kernel: sum an array, with an unpredictable branch on element
// parity and a multiply on the odd path.
const src = `
.proc main
    lda  r1, 20000(zero)     ; iterations
    lda  r16, table(zero)
loop:
    ld   r2, 0(r16)          ; load next element
    and  r3, r2, #1
    beq  r3, even            ; data-dependent parity branch
    mul  r4, r4, r2          ; odd: long-latency multiply
    br   next
even:
    add  r5, r5, r2
next:
    add  r16, r16, #8
    and  r16, r16, #0x21ff8  ; wrap over a 1024-element ring
    sub  r1, r1, #1
    bne  r1, loop
    ret
.endp
.data
.org 0x20000
table:
`

func main() {
	// 1. Assemble the program and give it data.
	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		// Mix the index through splitmix64's finalizer so element
		// parities are unpredictable: any one bit of a plain i*odd
		// sequence is periodic, and the predictor learns it.
		z := i * 0x9e3779b97f4a7c15
		z ^= z >> 31
		z *= 0xbf58476d1ce4e5b9
		prog.Data[0x20000+i*8] = z >> 63
	}

	// 2. Configure the machine (4-wide out-of-order, 21264-flavoured) and
	// the ProfileMe unit: sample one instruction every ~256 fetched.
	ccfg := cpu.DefaultConfig()
	ucfg := core.Config{
		MeanInterval: 256,
		Window:       80,
		BufferDepth:  8,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         1,
	}

	// 3. Run: the unit's samples feed the shard's per-PC aggregation
	// database, the profiling software's handler on each interrupt.
	sh, err := runner.RunShard(context.Background(), prog, ccfg, ucfg, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	db, res := sh.DB, sh.Result

	// 4. Report.
	fmt.Printf("retired %d instructions in %d cycles (CPI %.2f), %d mispredicts\n",
		res.Retired, res.Cycles, res.CPI(), res.Mispredicts)
	fmt.Printf("%d profiling interrupts delivered %d samples\n\n",
		res.Interrupts, db.Samples())
	fmt.Print(db.Report(prog, 12))

	// Per-instruction event rates single out the trouble spots.
	if pc, ok := prog.Label("loop"); ok {
		beqPC := pc + 2*4 // the beq
		if acc := db.Get(beqPC); acc != nil {
			fmt.Printf("\nthe parity branch at %s mispredicts on %.0f%% of samples\n",
				prog.SymbolFor(beqPC),
				100*profile.RateEstimate(acc.EventCount(core.EvMispredict), acc.Samples))
		}
	}
}
