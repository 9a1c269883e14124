(* Every benchmark timing comes from here: CLOCK_MONOTONIC in integer
   nanoseconds.  Unix.gettimeofday is too coarse for microsecond cache
   hits and steps with NTP. *)

let source = "clock_gettime(CLOCK_MONOTONIC) via bechamel.monotonic_clock, ns"

(* Declared here rather than called through [Monotonic_clock.now] so the
   result stays unboxed: reading the clock must not allocate, because
   {!Counted} reads it around every protocol handler call. *)
external monotonic_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let now_ns () = Int64.to_int (monotonic_ns ())

let seconds ns = float_of_int ns *. 1e-9

let since ns = seconds (now_ns () - ns)

(* [timed f] is [(f (), elapsed seconds)]. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)
