package vlog

// PrefixTokens returns the token stream ParsePrefixed parses for pre's
// prompt followed by completion, and whether it reused pre's tokens
// rather than falling back to lexing the whole text.
func PrefixTokens(pre *Prefix, completion string) ([]Token, bool, error) {
	if pre.line == 0 {
		toks, err := LexAll(pre.prompt + completion)
		return toks, false, err
	}
	toks, err := pre.lexInto(nil, completion)
	if err != nil {
		return nil, true, err
	}
	return toks, true, nil
}
