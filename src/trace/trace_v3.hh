// Forward for perfbench/outside_in.cc; delete with ROADMAP item 1.
#include "trace/trace_file.hh"
