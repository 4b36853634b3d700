module kaas/bench

go 1.22

require kaas v0.0.0

replace kaas => ../
