package vlog

// PrefixTokens returns the token stream of pre's prompt followed by
// completion as ParsePrefixed lexes it, and whether ParsePrefixed reuses
// pre's parsed head rather than falling back to parsing the whole text.
func PrefixTokens(pre *Prefix, completion string) ([]Token, bool, error) {
	if pre.head == nil {
		toks, err := LexAll(pre.prompt + completion)
		return toks, false, err
	}
	toks, err := LexAll(pre.prompt)
	if err != nil {
		return nil, true, err
	}
	toks, err = lexInto(toks, pre.completionLexer(completion))
	if err != nil {
		return nil, true, err
	}
	return toks, true, nil
}

// PrefixHead returns pre's parsed head, or nil when ParsePrefixed falls
// back to parsing the whole text.
func PrefixHead(pre *Prefix) *Module { return pre.head }
