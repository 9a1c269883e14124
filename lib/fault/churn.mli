(** The churn workload: seeded fault plans driven through the SLP-DAS
    protocol on grid deployments, measured with {!Resilience} metrics.

    A churn run is a standard {!Slpdas_exp.Runner}-style grid simulation
    with a {!Fault_plan} armed through {!Injector.arm}: nodes crash during
    the provisioning window (where the paper's dissemination machinery is
    still live and repairs the schedule), optionally revive, and message
    bursts can degrade normal operation.  Schedule probes taken at every
    period boundary of the provisioning window time reconvergence; the
    final schedule is re-checked under the alive-restriction and
    model-checked for δ-SLP-awareness before/after the faults.

    Everything is deterministic: equal configs give equal
    {!Resilience.report}s, and {!run_many} aggregates are independent of
    the domain count. *)

type config = {
  dim : int;  (** grid dimension (the paper's 11/15/21) *)
  seed : int;  (** master seed: salts protocol, engine and plan RNGs *)
  mode : Slpdas_core.Protocol.mode;
  params : Slpdas_exp.Params.t;
  plan : Fault_plan.t;
  detect_after : float option;
      (** failure-detection latency fed to {!Injector.arm}; default one
          dissemination period *)
  attacker : Slpdas_attack.Model.cls;
      (** adversary class the δ-SLP probes certify against: [Local] runs
          the exhaustive {!Slpdas_core.Verifier} (with incremental
          re-verification after the faults); every other class probes via
          seeded Monte-Carlo certification
          ({!Slpdas_serve.Service.mc_certify}, 64 trials seeded from
          [seed]), where "aware" means zero captures.  Named in the
          resulting {!Resilience.report.attacker}. *)
}

val default_config :
  ?mode:Slpdas_core.Protocol.mode ->
  ?attacker:Slpdas_attack.Model.cls ->
  dim:int ->
  seed:int ->
  Fault_plan.t ->
  config
(** Table-I parameters, SLP mode, [Local] attacker. *)

val churn_plan :
  params:Slpdas_exp.Params.t ->
  ?crashes:int ->
  ?crash_period:int ->
  ?revive_after_periods:int ->
  ?burst:float * float ->
  unit ->
  Fault_plan.t
(** The canonical churn plan: [crashes] (default 3) random non-sink,
    non-source nodes crash at period [crash_period] (default 40, the middle
    of the Table-I setup window); optionally all of them revive
    [revive_after_periods] later; optionally a [(loss, duration)] global
    burst hits two periods into normal operation. *)

type observation

val scenario :
  config ->
  ( Slpdas_core.Protocol.state,
    Slpdas_core.Messages.t,
    observation,
    Resilience.report )
  Slpdas_exp.Scenario.t

val run : config -> Resilience.report

val run_with_events : config -> Resilience.report * Slpdas_sim.Event.counters

val run_many : ?domains:int -> config list -> Resilience.report list
(** Parallel fan-out over a domain pool; results in input order. *)

val run_many_with_events :
  ?domains:int ->
  config list ->
  Resilience.report list * Slpdas_sim.Event.counters

(** {2 Report tables} *)

val header : string list

val row : Resilience.report -> string list
(** One table row per run: scenario, seed, fault counts, mean
    reconvergence periods, weak/strong verdicts, δ-SLP before/after,
    orphan count and delivery ratio. *)
