package gf2m

// The PCLMULQDQ rows of the multiplier sweep: the product as the 9-word
// schoolbook or the 6-word Karatsuba, each reduced by the PCLMULQDQ
// fold or in general-purpose registers. clmul-9-fold is mulCLMUL.
func init() {
	if hasCLMUL {
		clmulRows = []sweepRow{
			{"clmul-9-fold", mulCLMUL},
			{"clmul-9-gpr", mulCLMUL9GPR},
			{"clmul-6-fold", mulCLMUL6Fold},
			{"clmul-6-gpr", mulCLMUL6GPR},
		}
	}
}
