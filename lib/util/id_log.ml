(* An admission-order log, searched directly while it is strictly
   increasing (the common case: ids assigned in arrival order), plus an
   open-addressing index built the first time an id arrives out of order.
   The index stores the ids themselves with linear probing; [min_int]
   marks an empty slot, so membership of [min_int] itself is kept in a
   flag. The log is append-only and the live set never writes below its
   own length, which is what lets a frozen view share the array. *)

type t = {
  mutable log : int array;  (* members in admission order; [0, len) is live *)
  mutable len : int;
  mutable ascending : bool;  (* the log is strictly increasing; no index *)
  mutable slots : int array;  (* power-of-two length, at most half full; [||] while ascending *)
  mutable shift : int;  (* 63 - log2 (Array.length slots) *)
  mutable has_min : bool;  (* [min_int] is a member (indexed mode only) *)
}

type frozen = { f_log : int array; f_len : int; f_ascending : bool }

let empty = min_int

let create () =
  { log = [||]; len = 0; ascending = true; slots = [||]; shift = 63; has_min = false }

(* Fibonacci hashing: the top bits of the product with a large odd
   constant, so consecutive ids land far apart. *)
let home shift id = (id * 0x27D4EB2F165667C5) lsr shift

let rec find slots mask id i =
  let s = Array.unsafe_get slots i in
  s = id || (s <> empty && find slots mask id ((i + 1) land mask))

(* Binary search of the increasing prefix [lo, hi). *)
let rec search log id lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let v = Array.unsafe_get log mid in
  v = id || if v < id then search log id (mid + 1) hi else search log id lo mid

let mem t id =
  if t.ascending then
    (* A fresh id beyond the newest one is answered by one comparison. *)
    t.len > 0 && id <= t.log.(t.len - 1) && search t.log id 0 t.len
  else if id = empty then t.has_min
  else find t.slots (Array.length t.slots - 1) id (home t.shift id)

let rec insert slots mask id i =
  if Array.unsafe_get slots i = empty then Array.unsafe_set slots i id
  else insert slots mask id ((i + 1) land mask)

(* Smallest table keeping [n] ids at most half the slots. *)
let bits_for n =
  let rec go b = if 1 lsl b >= 2 * n then b else go (b + 1) in
  go 3

(* Rebuild the index from the log, sized for its length. *)
let reindex t =
  let bits = bits_for t.len in
  let slots = Array.make (1 lsl bits) empty in
  let shift = 63 - bits and mask = (1 lsl bits) - 1 in
  for k = 0 to t.len - 1 do
    let id = Array.unsafe_get t.log k in
    if id = empty then t.has_min <- true else insert slots mask id (home shift id)
  done;
  t.slots <- slots;
  t.shift <- shift

let add t id =
  if not (mem t id) then begin
    let n = t.len in
    if n = Array.length t.log then begin
      (* A fresh array: frozen views keep reading the old one. *)
      let log = Array.make (max 8 (2 * n)) 0 in
      Array.blit t.log 0 log 0 n;
      t.log <- log
    end;
    t.log.(n) <- id;
    t.len <- n + 1;
    if t.ascending then begin
      if n > 0 && t.log.(n - 1) > id then begin
        t.ascending <- false;
        reindex t
      end
    end
    else if id = empty then t.has_min <- true
    else if 2 * (n + 1) > Array.length t.slots then reindex t
    else insert t.slots (Array.length t.slots - 1) id (home t.shift id)
  end

let cardinal t = t.len

let freeze t = { f_log = t.log; f_len = t.len; f_ascending = t.ascending }

let thaw v =
  let t = create () in
  if v.f_len > 0 then begin
    t.log <- Array.sub v.f_log 0 v.f_len;
    t.len <- v.f_len;
    t.ascending <- v.f_ascending;
    if not v.f_ascending then reindex t
  end;
  t

let of_list ids =
  let t = create () in
  List.iter (add t) ids;
  freeze t

let frozen_cardinal v = v.f_len

let iter_ascending f v =
  if v.f_ascending then
    for k = 0 to v.f_len - 1 do
      f v.f_log.(k)
    done
  else begin
    let sorted = Array.sub v.f_log 0 v.f_len in
    Array.sort Int.compare sorted;
    Array.iter f sorted
  end
