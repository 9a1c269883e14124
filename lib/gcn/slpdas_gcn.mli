(** Guarded-command notation (GCN) runtime.

    The paper (§III-A) writes every protocol as a set of actions
    [⟨name⟩ :: ⟨guard⟩ → ⟨command⟩] in Dijkstra's guarded-command notation,
    with two special guard forms: [timeout(timer)] and [rcv(sender, msg)].
    This module executes that notation directly so the protocol code in
    [lib/core] is a transliteration of Figures 2–4 rather than a
    reinterpretation.

    An action is modelled as a function from the current state and an
    incoming {!type:trigger} to an optional [(new state, effects)] pair;
    [None] means the guard is false.  Commands are pure: all interaction with
    the environment (radio, timers) is expressed as {!type:effect_} values
    interpreted by the host (the discrete-event engine, or a test harness).

    Semantics of a delivered trigger: every action declares the trigger it
    can fire on ({!type:key}: one named timer, any timeout, a receive, or
    anything), and a trigger is offered only to the actions declared for
    it, in declaration order; the first enabled one fires (a deterministic
    refinement of GCN's nondeterministic choice — necessary for
    reproducible simulation).  {!Instance.create} indexes the actions by
    key once, so dispatching a timeout calls just the handlers of that
    timer instead of scanning the whole program.  After an action fires,
    {e spontaneous} actions (guards over state only, the bare-predicate
    guards of the paper such as [startR :: startNode → …]) are run to
    fixpoint: each round fires the first spontaneous action whose guard
    holds.  A well-formed spontaneous action must falsify its own guard;
    the runtime enforces termination with a fuel bound.  An instance
    counts how often each action has fired ({!Instance.fire_counts}); it
    keeps no per-event trace, so its memory does not grow with the run. *)

(** Interned timer identities.

    Timer names in the paper's notation are symbolic ([timeout(thello)],
    [timeout(tperiod)], …); protocols here additionally mint dynamic names
    (e.g. one forwarding timer per in-flight flood).  [intern] maps each
    distinct name to a small dense int once, so the engine's per-timer
    bookkeeping is an array index instead of a string-keyed hashtable probe.
    The registry is global, append-only, and safe to use from multiple
    domains (copy-on-write under a mutex; reads are lock-free). *)
module Timer : sig
  type t

  val intern : string -> t
  (** [intern name] returns the canonical id for [name], allocating a fresh
      one on first use.  Interning the same name always yields [equal] ids,
      within and across domains. *)

  val id : t -> int
  (** Dense non-negative index, suitable for array addressing.  Ids are
      assigned in interning order; [id t < count ()] always holds. *)

  val name : t -> string
  (** The original name, for diagnostics and the event bus. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val count : unit -> int
  (** Number of distinct names interned so far, process-wide. *)

  val pp : Format.formatter -> t -> unit
end

type 'm trigger =
  | Timeout of Timer.t  (** the named timer expired *)
  | Receive of { sender : int; msg : 'm }
      (** a message was dequeued from the channel variable [ch] *)
  | Round_end
      (** the channel has been drained: the [rcv⟨⟩] pseudo-guard of Fig. 2
          ("finished receiving all messages").  The host raises this at the
          end of each dissemination round. *)

type 'm effect_ =
  | Broadcast of 'm  (** transmit to all 1-hop neighbours *)
  | Set_timer of { timer : Timer.t; after : float }
      (** (re)arm a one-shot timer [after] seconds from now *)
  | Stop_timer of Timer.t  (** cancel a timer; no-op if not armed *)

(** The trigger an action can fire on: the dispatch key. *)
type key =
  | On_timer of Timer.t  (** [Timeout t] for this one timer *)
  | On_any_timeout  (** every [Timeout _], e.g. dynamically named timers *)
  | On_receive  (** every [Receive _] *)
  | On_any  (** every trigger, [Round_end] included *)

type ('s, 'm) action = {
  name : string;
  on : key;
      (** the triggers this action is offered; others never reach
          [handler] through {!Instance.deliver} *)
  handler : self:int -> 's -> 'm trigger -> ('s * 'm effect_ list) option;
      (** [None] when the guard is false for this state/trigger. *)
}

(** {2 Action constructors}

    Each builds an action keyed on one trigger form whose [handler] also
    rejects every other trigger, so calling it directly is safe. *)

val on_timeout :
  string ->
  Timer.t ->
  (self:int -> 's -> ('s * 'm effect_ list) option) ->
  ('s, 'm) action
(** [on_timeout name timer f]: [⟨name⟩ :: timeout(timer) ∧ guard → …];
    [f] returns [None] when the rest of the guard is false. *)

val on_any_timeout :
  string ->
  (self:int -> 's -> Timer.t -> ('s * 'm effect_ list) option) ->
  ('s, 'm) action
(** [on_any_timeout name f] is offered every timeout, with the timer. *)

val on_receive :
  string ->
  (self:int -> 's -> sender:int -> 'm -> ('s * 'm effect_ list) option) ->
  ('s, 'm) action
(** [on_receive name f]: [⟨name⟩ :: rcv(sender, msg) ∧ guard → …]. *)

val on_any :
  string ->
  (self:int -> 's -> 'm trigger -> ('s * 'm effect_ list) option) ->
  ('s, 'm) action
(** [on_any name handler] is offered every trigger. *)

type ('s, 'm) spontaneous = {
  sname : string;
  sguard : 's -> bool;
  scommand : self:int -> 's -> 's * 'm effect_ list;
}

type ('s, 'm) program = {
  init : self:int -> 's * 'm effect_ list;
      (** initial state and boot effects (the paper's [init] actions). *)
  actions : ('s, 'm) action list;
  spontaneous : ('s, 'm) spontaneous list;
}

exception Divergent of string
(** Raised when spontaneous actions fail to reach fixpoint within the fuel
    bound — a bug in the hosted protocol. *)

(** A running instance of a program at one node. *)
module Instance : sig
  type ('s, 'm) t

  val create : ('s, 'm) program -> self:int -> ('s, 'm) t * 'm effect_ list
  (** [create p ~self] boots the program: runs [init], then spontaneous
      actions to fixpoint, returning the instance and all boot effects in
      order. *)

  val self : ('s, 'm) t -> int

  val state : ('s, 'm) t -> 's
  (** Current state (for observers and tests). *)

  val deliver : ('s, 'm) t -> 'm trigger -> 'm effect_ list
  (** [deliver t trigger] runs the first enabled action declared for
      [trigger] (if any), then spontaneous actions to fixpoint, and returns
      the effects in emission order.  A trigger no action is enabled for is
      silently dropped, like a message arriving in a state that ignores
      it. *)

  val fire_counts : ('s, 'm) t -> (string * int) list
  (** [(name, n)] for every guarded action in declaration order, then every
      spontaneous action: how many times each has fired so far. *)
end
