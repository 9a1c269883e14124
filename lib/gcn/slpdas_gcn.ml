module Timer = struct
  type t = int

  (* Copy-on-write intern registry.  Readers probe the published table and
     array without taking the lock; writers copy, extend and re-publish under
     the mutex, so a published structure is never mutated.  [names] is
     published after the table entry it backs is added to the copy but before
     the copy itself is published, so any id observable through [table] is
     resolvable through [names]. *)
  let lock = Mutex.create ()
  let table : (string, int) Hashtbl.t Atomic.t = Atomic.make (Hashtbl.create 8)
  let names : string array Atomic.t = Atomic.make [||]

  let intern s =
    match Hashtbl.find_opt (Atomic.get table) s with
    | Some id -> id
    | None ->
      Mutex.protect lock (fun () ->
          let current = Atomic.get table in
          match Hashtbl.find_opt current s with
          | Some id -> id
          | None ->
            let id = Hashtbl.length current in
            let table' = Hashtbl.copy current in
            Hashtbl.replace table' s id;
            let old_names = Atomic.get names in
            let names' = Array.make (id + 1) s in
            Array.blit old_names 0 names' 0 (Array.length old_names);
            Atomic.set names names';
            Atomic.set table table';
            id)

  let id t = t
  let name t = (Atomic.get names).(t)
  let equal = Int.equal
  let compare = Int.compare
  let count () = Hashtbl.length (Atomic.get table)
  let pp fmt t = Format.pp_print_string fmt (name t)
end

type 'm trigger =
  | Timeout of Timer.t
  | Receive of { sender : int; msg : 'm }
  | Round_end

type 'm effect_ =
  | Broadcast of 'm
  | Set_timer of { timer : Timer.t; after : float }
  | Stop_timer of Timer.t

type key =
  | On_timer of Timer.t
  | On_any_timeout
  | On_receive
  | On_any

type ('s, 'm) action = {
  name : string;
  on : key;
  handler : self:int -> 's -> 'm trigger -> ('s * 'm effect_ list) option;
}

let on_timeout name timer f =
  {
    name;
    on = On_timer timer;
    handler =
      (fun ~self s trigger ->
        match trigger with
        | Timeout t when Timer.equal t timer -> f ~self s
        | Timeout _ | Receive _ | Round_end -> None);
  }

let on_any_timeout name f =
  {
    name;
    on = On_any_timeout;
    handler =
      (fun ~self s trigger ->
        match trigger with
        | Timeout t -> f ~self s t
        | Receive _ | Round_end -> None);
  }

let on_receive name f =
  {
    name;
    on = On_receive;
    handler =
      (fun ~self s trigger ->
        match trigger with
        | Receive { sender; msg } -> f ~self s ~sender msg
        | Timeout _ | Round_end -> None);
  }

let on_any name handler = { name; on = On_any; handler }

type ('s, 'm) spontaneous = {
  sname : string;
  sguard : 's -> bool;
  scommand : self:int -> 's -> 's * 'm effect_ list;
}

type ('s, 'm) program = {
  init : self:int -> 's * 'm effect_ list;
  actions : ('s, 'm) action list;
  spontaneous : ('s, 'm) spontaneous list;
}

exception Divergent of string

let spontaneous_fuel = 10_000

module Instance = struct
  (* Dispatch index, built once per instance: for each trigger kind, the
     positions (into [actions]) of the actions declared for it, ascending,
     so a trigger is offered to exactly those actions in declaration order.
     [by_timer.(id)] covers every timer some action names; any other timer
     goes to [any_timeout]. *)
  type ('s, 'm) t = {
    self : int;
    mutable state : 's;
    actions : ('s, 'm) action array;
    spontaneous : ('s, 'm) spontaneous array;
    by_timer : int array array;
    any_timeout : int array;
    receive : int array;
    round_end : int array;
    fires : int array;
        (* fires.(i): guarded action i; fires.(n_actions + j): spontaneous j *)
  }

  let self t = t.self

  let state t = t.state

  let fire_counts t =
    let n = Array.length t.actions in
    List.init n (fun i -> (t.actions.(i).name, t.fires.(i)))
    @ List.init (Array.length t.spontaneous) (fun j ->
          (t.spontaneous.(j).sname, t.fires.(n + j)))

  let index actions =
    (* Positions of the actions whose key [offered] accepts, ascending. *)
    let positions offered =
      let acc = ref [] in
      Array.iteri (fun i a -> if offered a.on then acc := i :: !acc) actions;
      Array.of_list (List.rev !acc)
    in
    let max_timer =
      Array.fold_left
        (fun m a -> match a.on with On_timer t -> max m (Timer.id t) | _ -> m)
        (-1) actions
    in
    let by_timer =
      Array.init (max_timer + 1) (fun id ->
          positions (function
            | On_timer t -> Timer.id t = id
            | On_any_timeout | On_any -> true
            | On_receive -> false))
    in
    let any_timeout =
      positions (function
        | On_any_timeout | On_any -> true
        | On_timer _ | On_receive -> false)
    in
    let receive =
      positions (function
        | On_receive | On_any -> true
        | On_timer _ | On_any_timeout -> false)
    in
    let round_end =
      positions (function
        | On_any -> true
        | On_timer _ | On_any_timeout | On_receive -> false)
    in
    (by_timer, any_timeout, receive, round_end)

  (* First enabled spontaneous action, as an index; -1 when none holds.
     Each guard is evaluated at most once per call. *)
  let rec first_spontaneous sp state j =
    if j >= Array.length sp then -1
    else if (Array.unsafe_get sp j).sguard state then j
    else first_spontaneous sp state (j + 1)

  (* Run spontaneous actions to fixpoint.  Returns the effects of each fire,
     in reverse firing order; [[]] (no allocation) when no guard holds. *)
  let settle t =
    let n = Array.length t.actions in
    let rec loop fuel acc =
      if fuel <= 0 then raise (Divergent "spontaneous actions did not settle");
      match first_spontaneous t.spontaneous t.state 0 with
      | -1 -> acc
      | j ->
        let s = t.spontaneous.(j) in
        let state', effs = s.scommand ~self:t.self t.state in
        t.state <- state';
        t.fires.(n + j) <- t.fires.(n + j) + 1;
        loop (fuel - 1) (effs :: acc)
    in
    loop spontaneous_fuel []

  (* [first] then the settle fires' effects, in emission order; [first] is
     returned as is (not copied) when nothing settled. *)
  let append first = function
    | [] -> first
    | settled -> first @ List.concat (List.rev settled)

  let create program ~self =
    let state, boot_effects = program.init ~self in
    let actions = Array.of_list program.actions in
    let spontaneous = Array.of_list program.spontaneous in
    let by_timer, any_timeout, receive, round_end = index actions in
    let t =
      {
        self;
        state;
        actions;
        spontaneous;
        by_timer;
        any_timeout;
        receive;
        round_end;
        fires = Array.make (Array.length actions + Array.length spontaneous) 0;
      }
    in
    (t, append boot_effects (settle t))

  let candidates t = function
    | Timeout timer ->
      let id = Timer.id timer in
      if id < Array.length t.by_timer then Array.unsafe_get t.by_timer id
      else t.any_timeout
    | Receive _ -> t.receive
    | Round_end -> t.round_end

  let deliver t trigger =
    let cands = candidates t trigger in
    let rec try_actions k =
      if k >= Array.length cands then
        (* Nothing fired, so the state is still the fixpoint the last
           [create] or [deliver] settled to: no spontaneous guard holds. *)
        []
      else begin
        let i = Array.unsafe_get cands k in
        let action = Array.unsafe_get t.actions i in
        match action.handler ~self:t.self t.state trigger with
        | None -> try_actions (k + 1)
        | Some (state', effects) ->
          t.state <- state';
          t.fires.(i) <- t.fires.(i) + 1;
          append effects (settle t)
      end
    in
    try_actions 0
end
