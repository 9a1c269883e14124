(* The end-to-end metrics of the timed run (--trace 0).  The same names are
   reported on every workload; what an operation is depends on the
   workload (a DES run, a sweep seed, a query, a churn run).

   [names] are the gated metrics listed in BENCHMARK.json.  The latency
   percentiles are printed and kept in the full result but not gated: a
   fig5_des run holds only about twenty multi-second operations, and on the
   shared reference host their median moved by up to a third between runs
   of identical work. *)

let names = [ "setup_s"; "peak_rss_mb"; "ops_per_s" ]

(* [ops_per_s] is [ops] operations over the time inside the timed calls,
   or, on serve_mixed, the median over passes of that rate. *)
let metrics ~ops ~ops_per_s ~latencies (m : _ Loop.measured) =
  let setup = m.Loop.setup_times in
  let n = Loop.count latencies in
  let us p = 1e6 *. Loop.percentile latencies p in
  ( [
      Report.metric ~samples:(Loop.count setup) "setup_s" "s" (Loop.percentile setup 50.0);
      Report.metric "peak_rss_mb" "MB" m.Loop.peak_rss_mb;
      Report.metric ~samples:ops "ops_per_s" "1/s" ops_per_s;
    ],
    [
      Report.metric ~samples:n "op_p50_us" "us" (us 50.0);
      Report.metric ~samples:n "op_tail_us" "us" (us (Loop.tail_rank latencies));
      Report.metric "setup_rss_mb" "MB" m.Loop.setup_rss_mb;
    ] )

let note latencies =
  Printf.sprintf
    "op_tail_us is the p%.4g of %d operation latencies (the highest percentile \
     with at least ten samples beyond it, at most p99)"
    (Loop.tail_rank latencies) (Loop.count latencies)
