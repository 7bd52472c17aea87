type t = {
  mutable slots : Post.t array;  (* power-of-two length; [||] until the first push *)
  mutable head : int;  (* slot of the minimum *)
  mutable len : int;
}

(* Fills vacated slots, so a popped post is not kept alive by the ring. *)
let vacant = Post.make ~id:0 ~value:0. ~labels:Label_set.empty

let create () = { slots = [||]; head = 0; len = 0 }
let length t = t.len

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (max 8 (2 * cap)) vacant in
  for k = 0 to t.len - 1 do
    slots.(k) <- t.slots.((t.head + k) land (cap - 1))
  done;
  t.slots <- slots;
  t.head <- 0

let push t post =
  if t.len = Array.length t.slots then grow t;
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  (* Walk back from the tail, moving each newer post one slot right. *)
  let rec place k =
    let at = (t.head + k) land mask in
    if k = 0 then slots.(at) <- post
    else begin
      let prev = slots.((t.head + k - 1) land mask) in
      if Post.compare_by_value prev post > 0 then begin
        slots.(at) <- prev;
        place (k - 1)
      end
      else slots.(at) <- post
    end
  in
  place t.len;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Staging.pop: empty";
  let post = t.slots.(t.head) in
  t.slots.(t.head) <- vacant;
  t.head <- (t.head + 1) land (Array.length t.slots - 1);
  t.len <- t.len - 1;
  post

let to_list t =
  let mask = Array.length t.slots - 1 in
  let rec from k acc =
    if k < 0 then acc else from (k - 1) (t.slots.((t.head + k) land mask) :: acc)
  in
  from (t.len - 1) []
