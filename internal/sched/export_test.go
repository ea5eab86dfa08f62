package sched

// Live reports the number of live threads bound to processor p.
func Live(s *Scheduler, p int) int { return s.live[p] }
