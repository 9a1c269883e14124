type 'a t = {
  stable : bool;
  vacant : 'a;
  mutable size : int;
  mutable at : float array;
  mutable seq : int array;
  mutable k1 : int array;
  mutable k2 : int array;
  mutable node : int array;
  mutable x : int array;
  mutable y : int array;
  mutable payload : 'a array;
}

let initial_capacity = 256

let create ~stable vacant =
  let n = initial_capacity in
  {
    stable;
    vacant;
    size = 0;
    at = Array.make n 0.0;
    seq = Array.make n 0;
    k1 = Array.make n 0;
    k2 = Array.make n 0;
    node = Array.make n 0;
    x = Array.make n 0;
    y = Array.make n 0;
    payload = Array.make n vacant;
  }

let is_empty q = q.size = 0

(* Does the key (at, seq, k1, k2) order strictly before entry [j]?  The
   time test runs first and settles almost every comparison; equal times
   fall to the tiebreak.  The final [Float.compare] only sees NaNs. *)
let[@inline] before q ~at ~seq ~k1 ~k2 j =
  let bt = Array.unsafe_get q.at j in
  if at < bt then true
  else if bt < at then false
  else if at = bt || Float.compare at bt = 0 then
    if q.stable then begin
      let b1 = Array.unsafe_get q.k1 j in
      if k1 <> b1 then k1 < b1
      else begin
        let b2 = Array.unsafe_get q.k2 j in
        if k2 <> b2 then k2 < b2 else seq < Array.unsafe_get q.seq j
      end
    end
    else seq < Array.unsafe_get q.seq j
  else Float.compare at bt < 0

let[@inline] entry_before q i j =
  before q ~at:(Array.unsafe_get q.at i) ~seq:(Array.unsafe_get q.seq i)
    ~k1:(Array.unsafe_get q.k1 i) ~k2:(Array.unsafe_get q.k2 i) j

(* Copy entry [src] into slot [dst]. *)
let[@inline] move q ~src ~dst =
  Array.unsafe_set q.at dst (Array.unsafe_get q.at src);
  Array.unsafe_set q.seq dst (Array.unsafe_get q.seq src);
  Array.unsafe_set q.k1 dst (Array.unsafe_get q.k1 src);
  Array.unsafe_set q.k2 dst (Array.unsafe_get q.k2 src);
  Array.unsafe_set q.node dst (Array.unsafe_get q.node src);
  Array.unsafe_set q.x dst (Array.unsafe_get q.x src);
  Array.unsafe_set q.y dst (Array.unsafe_get q.y src);
  Array.unsafe_set q.payload dst (Array.unsafe_get q.payload src)

let[@inline] set q i ~at ~seq ~k1 ~k2 ~node ~x ~y payload =
  Array.unsafe_set q.at i at;
  Array.unsafe_set q.seq i seq;
  Array.unsafe_set q.k1 i k1;
  Array.unsafe_set q.k2 i k2;
  Array.unsafe_set q.node i node;
  Array.unsafe_set q.x i x;
  Array.unsafe_set q.y i y;
  Array.unsafe_set q.payload i payload

let grow q =
  let n = Array.length q.at in
  let n' = 2 * n in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  q.at <- extend q.at 0.0;
  q.seq <- extend q.seq 0;
  q.k1 <- extend q.k1 0;
  q.k2 <- extend q.k2 0;
  q.node <- extend q.node 0;
  q.x <- extend q.x 0;
  q.y <- extend q.y 0;
  q.payload <- extend q.payload q.vacant

(* Sift-up with a hole: parents larger than the new key move down one
   level, and the new entry is written once, where the hole stops. *)
let push q ~at ~seq ~k1 ~k2 ~node ~x ~y payload =
  if q.size = Array.length q.at then grow q;
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before q ~at ~seq ~k1 ~k2 parent then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  set q !i ~at ~seq ~k1 ~k2 ~node ~x ~y payload

let check_nonempty q what =
  if q.size = 0 then invalid_arg ("Event_queue." ^ what ^ ": empty queue")

let min_at q =
  check_nonempty q "min_at";
  Array.unsafe_get q.at 0

let min_k1 q =
  check_nonempty q "min_k1";
  Array.unsafe_get q.k1 0

let min_k2 q =
  check_nonempty q "min_k2";
  Array.unsafe_get q.k2 0

let min_node q =
  check_nonempty q "min_node";
  Array.unsafe_get q.node 0

let min_x q =
  check_nonempty q "min_x";
  Array.unsafe_get q.x 0

let min_y q =
  check_nonempty q "min_y";
  Array.unsafe_get q.y 0

let min_payload q =
  check_nonempty q "min_payload";
  Array.unsafe_get q.payload 0

(* Sift-down with a hole: the last entry is re-inserted from the root,
   smaller children moving up one level until it fits. *)
let pop q =
  check_nonempty q "pop";
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    let at = Array.unsafe_get q.at last
    and seq = Array.unsafe_get q.seq last
    and k1 = Array.unsafe_get q.k1 last
    and k2 = Array.unsafe_get q.k2 last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c = if r < last && entry_before q r l then r else l in
        if before q ~at ~seq ~k1 ~k2 c then continue := false
        else begin
          move q ~src:c ~dst:!i;
          i := c
        end
      end
    done;
    move q ~src:last ~dst:!i
  end;
  Array.unsafe_set q.payload last q.vacant
