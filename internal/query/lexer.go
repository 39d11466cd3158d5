// Package query models SkyMapJoin queries and parses the paper's SQL
// dialect — SELECT/FROM/WHERE extended with a PREFERRING clause (query Q1):
//
//	SELECT R.id, T.id,
//	       (R.uPrice + T.uShipCost) AS tCost,
//	       (2 * R.manTime + T.shipTime) AS delay
//	FROM Suppliers R, Transporters T
//	WHERE R.country = T.country AND R.manCap >= 100000
//	PREFERRING LOWEST(tCost) AND LOWEST(delay)
//
// Parsed queries compile against a pair of relations into an smj.Problem
// runnable by any engine in this repository.
package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind int8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokPlus
	tokMinus
	tokStar
	tokEQ
	tokNE
	tokLT
	tokLE
	tokGT
	tokGE
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokEQ:
		return "'='"
	case tokNE:
		return "'<>'"
	case tokLT:
		return "'<'"
	case tokLE:
		return "'<='"
	case tokGT:
		return "'>'"
	case tokGE:
		return "'>='"
	default:
		return fmt.Sprintf("token(%d)", int8(k))
	}
}

// token is one lexical unit with its source position (for error messages).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex tokenizes the input. Identifiers are reported verbatim; keyword
// recognition is the parser's job (case-insensitive).
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '.':
			toks = append(toks, token{tokDot, ".", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '+':
			toks = append(toks, token{tokPlus, "+", i})
			i++
		case c == '-':
			toks = append(toks, token{tokMinus, "-", i})
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEQ, "=", i})
			i++
		case c == '<':
			switch {
			case i+1 < n && input[i+1] == '=':
				toks = append(toks, token{tokLE, "<=", i})
				i += 2
			case i+1 < n && input[i+1] == '>':
				toks = append(toks, token{tokNE, "<>", i})
				i += 2
			default:
				toks = append(toks, token{tokLT, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokGE, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokGT, ">", i})
				i++
			}
		case c >= '0' && c <= '9':
			j := i
			seenDot := false
			for j < n {
				d := input[j]
				if d >= '0' && d <= '9' {
					j++
					continue
				}
				if d == '.' && !seenDot && j+1 < n && input[j+1] >= '0' && input[j+1] <= '9' {
					seenDot = true
					j++
					continue
				}
				break
			}
			// Scientific suffix (e.g. 1e5, 2.5e-3).
			if j < n && (input[j] == 'e' || input[j] == 'E') {
				k := j + 1
				if k < n && (input[k] == '+' || input[k] == '-') {
					k++
				}
				if k < n && input[k] >= '0' && input[k] <= '9' {
					for k < n && input[k] >= '0' && input[k] <= '9' {
						k++
					}
					j = k
				}
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		default:
			// Anything else must start an identifier, read rune by rune.
			r, size := utf8.DecodeRuneInString(input[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				return nil, fmt.Errorf("query: position %d: invalid UTF-8 byte %#x", i, c)
			case !isIdentStart(r):
				return nil, fmt.Errorf("query: position %d: unexpected character %q", i, string(r))
			}
			j := i + size
			for j < n {
				r, size := utf8.DecodeRuneInString(input[j:])
				if !isIdentPart(r) {
					break
				}
				j += size
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isKeyword reports whether the identifier equals the keyword,
// case-insensitively.
func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
