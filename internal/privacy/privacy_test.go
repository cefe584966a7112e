package privacy

import "testing"

func TestSchnorrIsTraceable(t *testing.T) {
	// Paper §4: "tags using the Schnorr identification protocol can be
	// easily traced". The wide adversary must win every round.
	res, err := RunLinkingGame(GameConfig{Protocol: Schnorr, Rounds: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != res.Rounds {
		t.Fatalf("Schnorr linker won %d/%d rounds; tracing should be exact", res.Correct, res.Rounds)
	}
	if res.Advantage != 1.0 {
		t.Fatalf("advantage %.3f, want 1.0", res.Advantage)
	}
}

func TestPeetersHermansResistsWideInsider(t *testing.T) {
	// The Fig. 2 protocol: the wide-insider adversary must do no
	// better than guessing. With 60 rounds a fair coin stays well
	// under 0.45 advantage (p < 0.001 of exceeding it).
	res, err := RunLinkingGame(GameConfig{Protocol: PeetersHermans, Rounds: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage > 0.45 {
		t.Fatalf("PH adversary advantage %.3f (won %d/%d); privacy broken",
			res.Advantage, res.Correct, res.Rounds)
	}
}

func TestPeetersHermansCorruptReaderLinks(t *testing.T) {
	// White-box sanity check: with the reader secret the linking
	// machinery identifies every round — so the wide adversary's
	// failure above is due to the protocol, not to a broken linker.
	res, err := RunLinkingGame(GameConfig{Protocol: PeetersHermans, Rounds: 25, Seed: 3, CorruptReader: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != res.Rounds {
		t.Fatalf("corrupt reader linked %d/%d rounds, want all", res.Correct, res.Rounds)
	}
}

func TestGameValidation(t *testing.T) {
	if _, err := RunLinkingGame(GameConfig{Protocol: Schnorr, Rounds: 0}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := RunLinkingGame(GameConfig{Protocol: Kind(99), Rounds: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
