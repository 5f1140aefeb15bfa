package lineproto

// UnderEscapedLines are the lines of underEscaped, for the fuzz seeds of
// the package's external tests.
func UnderEscapedLines() []string {
	lines := make([]string, len(underEscaped))
	for i, c := range underEscaped {
		lines[i] = c.line
	}
	return lines
}
