// Package medsec is a full software reproduction of "Low-Energy
// Encryption for Medical Devices: Security Adds an Extra Design
// Dimension" (Fan, Reparaz, Rožić, Verbauwhede — DAC 2013): a
// low-energy, side-channel-protected elliptic-curve co-processor for
// implantable medical devices, together with every substrate the paper
// builds on and every experiment its evaluation reports.
//
// The library is organized along the paper's security pyramid
// (Fig. 1):
//
//	internal/protocol  – protocol level: Peeters–Hermans private
//	                     identification, Schnorr baseline, pacemaker
//	                     mutual-authentication session
//	internal/ec        – algorithm level: K-163, Montgomery powering
//	                     ladder, randomized projective coordinates
//	internal/coproc    – architecture level: 6-register, digit-serial
//	                     MALU co-processor simulator (cycle accurate)
//	internal/power     – circuit level: CMOS/WDDL/SABL, balanced mux
//	                     encoding, clock gating, isolation, glitches
//	internal/sca       – the Fig. 4 evaluation workflow: CPA/DPA, SPA,
//	                     timing analysis, TVLA
//	internal/design    – one validated design point across the four
//	                     levels; Stack.Chip() mints the integrated,
//	                     metered co-processor (the paper's contribution)
//
// Supporting substrates: internal/gf2m (binary fields),
// internal/modn (scalar arithmetic), internal/lightcrypto (AES-128,
// SHA-1), internal/rng (DRBG, Gaussian noise), internal/trace (power
// traces and statistics), internal/privacy (linking games),
// internal/radio (communication energy), internal/area (gate counts
// and the digit-size trade-off), internal/tabular (table rendering).
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured record, cmd/reportgen for the experiment report
// (REPORT.md) it cites, and examples/ for runnable applications.
package medsec
