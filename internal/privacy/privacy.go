// Package privacy implements the tag-linking game behind the paper's
// Section 4 privacy discussion: Vaudenay [20] showed strong privacy
// needs public-key cryptography, but not every PKC protocol provides
// it — "tags using the Schnorr identification protocol can be easily
// traced", while the Peeters–Hermans protocol [14] achieves
// wide-forward-insider privacy.
//
// The game: two tags are registered with one reader; each round the
// challenger runs a session with a secretly chosen tag and hands the
// transcript to the adversary, who must say which tag it was. The
// adversary is *wide* (sees protocol outcomes and all public keys) and
// *insider* (may know other tags' secrets). A corrupt-reader variant
// (adversary knows the reader secret y) sanity-checks that the linking
// machinery itself works — mirroring the paper's white-box
// methodology for the DPA countermeasure.
package privacy

import (
	"errors"

	"medsec/internal/ec"
	"medsec/internal/lightcrypto"
	"medsec/internal/modn"
	"medsec/internal/protocol"
	"medsec/internal/rng"
)

// Kind selects the protocol under test.
type Kind int

// Protocols under test.
const (
	PeetersHermans Kind = iota
	Schnorr
)

// GameConfig parametrizes a linking game.
type GameConfig struct {
	Protocol Kind
	Rounds   int
	Seed     uint64
	// CorruptReader hands the adversary the reader secret y (only
	// meaningful for Peeters–Hermans; it turns the game into the
	// white-box sanity check).
	CorruptReader bool
}

// GameResult reports the adversary's performance.
type GameResult struct {
	Rounds  int
	Correct int
	// Advantage is 2*|Pr[correct] - 1/2| in [0, 1]: ~0 means the
	// protocol hides the tag identity; ~1 means tags are traceable.
	Advantage float64
}

func (r *GameResult) finish() {
	p := float64(r.Correct) / float64(r.Rounds)
	d := p - 0.5
	if d < 0 {
		d = -d
	}
	r.Advantage = 2 * d
}

// transcript is what the wide adversary observes per round.
type transcript struct {
	commit, challenge, response []byte
}

// RunLinkingGame plays the game for the configured protocol.
func RunLinkingGame(cfg GameConfig) (*GameResult, error) {
	if cfg.Rounds <= 0 {
		return nil, errors.New("privacy: need at least one round")
	}
	curve := ec.K163()
	src := rng.NewDRBG(cfg.Seed).Uint64
	mul := &protocol.SoftwareMultiplier{Curve: curve, Rand: src}
	coins := rng.NewDRBG(cfg.Seed ^ 0xfeedface)

	switch cfg.Protocol {
	case Schnorr:
		return runSchnorrGame(curve, mul, src, coins, cfg)
	case PeetersHermans:
		return runPHGame(curve, mul, src, coins, cfg)
	default:
		return nil, errors.New("privacy: unknown protocol")
	}
}

func runSchnorrGame(curve *ec.Curve, mul protocol.PointMultiplier, src func() uint64, coins *rng.DRBG, cfg GameConfig) (*GameResult, error) {
	t0, err := protocol.NewSchnorrTag(curve, mul, src)
	if err != nil {
		return nil, err
	}
	t1, err := protocol.NewSchnorrTag(curve, mul, src)
	if err != nil {
		return nil, err
	}
	ver := &protocol.SchnorrVerifier{Curve: curve, Mul: mul, Rand: src}

	res := &GameResult{Rounds: cfg.Rounds}
	for i := 0; i < cfg.Rounds; i++ {
		b := coins.Intn(2)
		tag := t0
		if b == 1 {
			tag = t1
		}
		tr, err := playSchnorr(tag, ver)
		if err != nil {
			return nil, err
		}
		guess, err := linkSchnorr(curve, mul, tr, t0.Pub, t1.Pub)
		if err != nil {
			return nil, err
		}
		if guess == b {
			res.Correct++
		}
	}
	res.finish()
	return res, nil
}

func playSchnorr(tag *protocol.SchnorrTag, ver *protocol.SchnorrVerifier) (*transcript, error) {
	c, err := tag.Commit()
	if err != nil {
		return nil, err
	}
	ch := ver.Challenge()
	r, err := tag.Respond(ch)
	if err != nil {
		return nil, err
	}
	return &transcript{commit: c, challenge: ch, response: r}, nil
}

// linkSchnorr is the paper's tracing attack: from (R, e, s) the wide
// adversary computes e^-1·(s·P - R) = X and matches it against the
// candidate public keys — no secrets needed.
func linkSchnorr(curve *ec.Curve, mul protocol.PointMultiplier, tr *transcript, x0, x1 ec.Point) (int, error) {
	R, err := curve.Decompress(tr.commit)
	if err != nil {
		return -1, err
	}
	e, err := modn.FromBytes(tr.challenge)
	if err != nil {
		return -1, err
	}
	s, err := modn.FromBytes(tr.response)
	if err != nil {
		return -1, err
	}
	sP, err := mul.ScalarMul(s, curve.Generator())
	if err != nil {
		return -1, err
	}
	diff := curve.Add(sP, curve.Neg(R)) // e·X
	eInv := curve.Order.Inv(curve.Order.Reduce(e))
	X, err := mul.ScalarMul(eInv, diff)
	if err != nil {
		return -1, err
	}
	switch {
	case X.Equal(x0):
		return 0, nil
	case X.Equal(x1):
		return 1, nil
	default:
		return -1, errors.New("privacy: Schnorr linker matched neither tag")
	}
}

func runPHGame(curve *ec.Curve, mul protocol.PointMultiplier, src func() uint64, coins *rng.DRBG, cfg GameConfig) (*GameResult, error) {
	rdr, err := protocol.NewReader(curve, mul, src)
	if err != nil {
		return nil, err
	}
	t0, err := protocol.NewTag(curve, mul, src, rdr.Pub)
	if err != nil {
		return nil, err
	}
	t1, err := protocol.NewTag(curve, mul, src, rdr.Pub)
	if err != nil {
		return nil, err
	}
	rdr.Register(t0.Pub)
	rdr.Register(t1.Pub)

	res := &GameResult{Rounds: cfg.Rounds}
	for i := 0; i < cfg.Rounds; i++ {
		b := coins.Intn(2)
		tag := t0
		if b == 1 {
			tag = t1
		}
		tr, err := playPH(tag, rdr)
		if err != nil {
			return nil, err
		}
		var guess int
		if cfg.CorruptReader {
			guess, err = linkPHWithReaderSecret(curve, mul, rdr, tr, t0.Pub, t1.Pub)
			if err != nil {
				return nil, err
			}
		} else {
			// The wide-insider adversary: it knows both public keys
			// (and could know other tags' secrets — useless here).
			// Computing s·P - e·R yields (d + x)·P with d blinded by
			// the ephemeral Diffie–Hellman value x(r·Y); without y the
			// best remaining strategy is a deterministic guess.
			guess = genericGuess(tr)
		}
		if guess == b {
			res.Correct++
		}
	}
	res.finish()
	return res, nil
}

func playPH(tag *protocol.Tag, rdr *protocol.Reader) (*transcript, error) {
	c, err := tag.Commit()
	if err != nil {
		return nil, err
	}
	ch := rdr.Challenge()
	r, err := tag.Respond(ch)
	if err != nil {
		return nil, err
	}
	// Sanity: the reader must still accept (the adversary is wide —
	// it sees the protocol outcome).
	if _, err := rdr.Identify(c, ch, r); err != nil {
		return nil, err
	}
	return &transcript{commit: c, challenge: ch, response: r}, nil
}

// linkPHWithReaderSecret replays the reader's identification with the
// corrupt reader's y: d' = xcoord(y·R), X = s·P - d'·P - e·R.
func linkPHWithReaderSecret(curve *ec.Curve, mul protocol.PointMultiplier, rdr *protocol.Reader, tr *transcript, x0, x1 ec.Point) (int, error) {
	idx, err := rdr.Identify(tr.commit, tr.challenge, tr.response)
	if err != nil {
		return -1, err
	}
	switch {
	case rdr.DB[idx].Equal(x0):
		return 0, nil
	case rdr.DB[idx].Equal(x1):
		return 1, nil
	}
	return -1, errors.New("privacy: corrupt reader matched neither tag")
}

// genericGuess is the adversary's fallback: a deterministic coin
// derived from the transcript. Against a private protocol nothing
// better exists.
func genericGuess(tr *transcript) int {
	h := lightcrypto.SHA1Sum(append(append(append([]byte{}, tr.commit...), tr.challenge...), tr.response...))
	return int(h[0] & 1)
}
