package cliutil

import "testing"

func TestValidateParallel(t *testing.T) {
	cases := []struct {
		parallel int
		wantErr  bool
	}{
		{-8, true},
		{-1, true},
		{0, false},
		{1, false},
		{64, false},
	}
	for _, tc := range cases {
		if err := ValidateParallel(tc.parallel); (err != nil) != tc.wantErr {
			t.Errorf("ValidateParallel(%d) = %v, want error %v", tc.parallel, err, tc.wantErr)
		}
	}
}

func TestValidatePositive(t *testing.T) {
	cases := []struct {
		v       int
		wantErr bool
	}{
		{-3, true},
		{0, true},
		{1, false},
		{1000, false},
	}
	for _, tc := range cases {
		if err := ValidatePositive("-rounds", tc.v); (err != nil) != tc.wantErr {
			t.Errorf("ValidatePositive(%d) = %v, want error %v", tc.v, err, tc.wantErr)
		}
	}
}

func TestValidateAttackFlags(t *testing.T) {
	cases := []struct {
		name      string
		attack    string
		attackers int
		collude   bool
		wantErr   bool
	}{
		{"all defaults", "", 0, false, false},
		{"negative attackers", "badmouth", -1, false, true},
		{"negative attackers without model", "", -25, false, true},
		{"attackers without model", "", 25, false, true},
		{"collude without model", "", 0, true, true},
		{"collude with model", "badmouth", 0, true, false},
		{"attackers with model", "onoff", 25, false, false},
		{"everything set", "ballot", 10, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateAttackFlags(tc.attack, tc.attackers, tc.collude)
			if (err != nil) != tc.wantErr {
				t.Errorf("ValidateAttackFlags(%q, %d, %v) = %v, want error %v",
					tc.attack, tc.attackers, tc.collude, err, tc.wantErr)
			}
		})
	}
}
