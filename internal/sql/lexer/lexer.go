// Package lexer tokenizes the SQL dialect used by IronSafe: the subset of
// SQL-92 needed by the TPC-H workload plus IronSafe's policy-managed DDL/DML.
package lexer

import (
	"fmt"
	"strings"
)

// TokenKind classifies a token.
type TokenKind int

// Token kinds.
const (
	EOF TokenKind = iota
	Ident
	Keyword
	Number
	String
	Symbol // operators and punctuation
)

// Token is one lexical unit.
type Token struct {
	Kind TokenKind
	// Text is the raw text; keywords are upper-cased, identifiers keep
	// their original case, strings are unquoted.
	Text string
	Pos  int // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "<eof>"
	case String:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords recognized by the dialect. Anything else alphabetic is an Ident.
var keywords = map[string]bool{}

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
		"LIMIT", "AS", "AND", "OR", "NOT", "IN", "EXISTS", "BETWEEN",
		"LIKE", "IS", "NULL", "ASC", "DESC", "JOIN", "LEFT", "RIGHT",
		"INNER", "OUTER", "ON", "CASE", "WHEN", "THEN", "ELSE", "END",
		"DATE", "INTERVAL", "DAY", "MONTH", "YEAR", "EXTRACT", "DISTINCT",
		"CREATE", "TABLE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
		"DELETE", "INTEGER", "BIGINT", "DOUBLE", "DECIMAL", "VARCHAR",
		"CHAR", "TEXT", "BOOLEAN", "TRUE", "FALSE", "COUNT", "SUM", "AVG",
		"MIN", "MAX", "SUBSTRING", "FOR", "PRIMARY", "KEY", "ALL", "ANY",
		"UNION", "DROP", "IF",
	} {
		keywords[k] = true
	}
}

// Lex tokenizes input, returning the token stream or an error with position
// information.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			seenDot := false
			for i < n && (isDigit(input[i]) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, Token{Kind: Number, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("lexer: unterminated string at offset %d", start)
			}
			toks = append(toks, Token{Kind: String, Text: sb.String(), Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{Kind: Keyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, Token{Kind: Ident, Text: word, Pos: start})
			}
		default:
			start := i
			// Multi-byte symbols first.
			for _, sym := range []string{"<>", "<=", ">=", "!=", "||"} {
				if strings.HasPrefix(input[i:], sym) {
					toks = append(toks, Token{Kind: Symbol, Text: sym, Pos: start})
					i += len(sym)
					goto next
				}
			}
			if strings.ContainsRune("+-*/(),.<>=;%", rune(c)) {
				toks = append(toks, Token{Kind: Symbol, Text: string(c), Pos: start})
				i++
				goto next
			}
			return nil, fmt.Errorf("lexer: unexpected character %q at offset %d", c, i)
		next:
		}
	}
	toks = append(toks, Token{Kind: EOF, Pos: n})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Identifiers are ASCII, so a name the parser upper-cases prints as it read.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == '$' || isDigit(c)
}
