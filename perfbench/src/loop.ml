(* Timing helpers shared by the workloads. *)

(* Latency samples of one kind, in seconds.  Count and sum cover every
   sample; percentiles come from a uniform reservoir of at most [cap]
   of them, so memory does not grow with the length or speed of a run. *)
type samples = {
  mutable data : float array;
  mutable n : int;
  mutable total : float;
  rng : Slpdas_util.Rng.t;
}

let cap = 65_536

let samples () =
  { data = Array.make 1024 0.0; n = 0; total = 0.0; rng = Slpdas_util.Rng.create 0 }

let add s x =
  if s.n < cap then begin
    if s.n = Array.length s.data then begin
      let d = Array.make (2 * s.n) 0.0 in
      Array.blit s.data 0 d 0 s.n;
      s.data <- d
    end;
    s.data.(s.n) <- x
  end
  else begin
    let j = Slpdas_util.Rng.int s.rng (s.n + 1) in
    if j < cap then s.data.(j) <- x
  end;
  s.n <- s.n + 1;
  s.total <- s.total +. x

let count s = s.n

let sum s = s.total

let mean s = if s.n = 0 then 0.0 else s.total /. float_of_int s.n

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile s p =
  let k = min s.n cap in
  if k = 0 then 0.0
  else begin
    let a = Array.sub s.data 0 k in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int k)) in
    a.(max 0 (min (k - 1) (rank - 1)))
  end

(* The highest percentile (at most the 99th) with at least ten samples
   beyond it; the median when there are fewer than 20 samples. *)
let tail_rank s =
  if s.n < 20 then 50.0 else Float.min 99.0 (100.0 *. (1.0 -. (10.0 /. float_of_int s.n)))

(* A set-up burst runs [f] at least [setup_min_reps] times, and on until
   [setup_min_s] have passed or [setup_max_reps] runs are done, adding each
   time to [samples].  The repetitions whose result is thrown away run
   first, and a full major collection precedes each one, untimed, so only
   one copy of the input is alive and none is charged for another's
   garbage. *)
let setup_min_reps = 5

let setup_max_reps = 201

let setup_min_s = 0.5

let setup_burst samples f =
  let once () =
    Gc.full_major ();
    let v, dt = Clock.timed f in
    add samples dt;
    v
  in
  let t0 = Clock.now_ns () in
  let reps = ref 1 in
  while
    !reps < setup_max_reps && (!reps < setup_min_reps || Clock.since t0 < setup_min_s)
  do
    ignore (once ());
    incr reps
  done;
  once ()

(* Set-up whose time is not reported (the traced runs). *)
let setup f = setup_burst (samples ()) f

type 'a measured = {
  result : 'a;
  setup_times : samples;
  setup_rss_mb : float;  (** resident set right after set-up *)
  peak_rss_mb : float;  (** before the closing burst *)
}

(* [measured f run] is [run (f ())] with its set-up timed and its memory
   read.  Set-up is timed in a burst before [run] and again in one after
   it, so the median spans the run's length rather than one moment of the
   host's speed.  The peak resident set is read before the closing burst,
   which therefore never adds a copy of the input to it. *)
let measured f run =
  let mb m = Option.value ~default:0.0 m in
  let setup_times = samples () in
  let v = setup_burst setup_times f in
  let setup_rss_mb = mb (Host.rss_mb ()) in
  let result = run v in
  let peak_rss_mb = mb (Host.peak_rss_mb ()) in
  ignore (setup_burst setup_times f);
  { result; setup_times; setup_rss_mb; peak_rss_mb }

(* [until ~seconds f] calls [f 0], [f 1], … until [seconds] of wall time
   have passed (at least once); returns the number of calls. *)
let until ~seconds f =
  let t0 = Clock.now_ns () in
  let i = ref 0 in
  while !i = 0 || Clock.since t0 < seconds do
    f !i;
    incr i
  done;
  !i
