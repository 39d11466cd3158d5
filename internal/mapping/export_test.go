package mapping

// Compiled reports whether Map evaluates function j of s by the compiled
// multiply-add loop rather than by its expression tree.
func Compiled(s *Set, j int) bool { return s.kerns[j].expr == nil }
