(* Output checks. Each check compares what the daemon (or the solver)
   returned with a reference the benchmark computes itself, and each has
   a planted-fault twin: the same check run on one tampered emission or
   cover must fail, which proves the check can fail at all. *)

type emission = { eseq : int; id : int; time_hex : string }

let hex_of_float f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* [<seq> EMIT <eseq> <id> <time-hex>] *)
let parse_emit line =
  match String.split_on_char ' ' line with
  | [ _; "EMIT"; eseq; id; hex ] ->
    Some { eseq = int_of_string eseq; id = int_of_string id; time_hex = hex }
  | _ -> None

(* What an in-process Feed, fed the posts profile [pr] received, emits —
   numbered from 1 like the profile's report sequence. *)
let reference_emissions (pr : Work.profile) posts =
  let feed = Mqdp.Feed.create ~window:pr.window ~lambda:pr.lambda pr.mode in
  List.concat_map
    (fun p ->
      match Work.project pr p with
      | None -> []
      | Some q -> (Mqdp.Feed.push feed q).Mqdp.Feed.emissions)
    posts
  |> List.mapi (fun i e ->
         {
           eseq = i + 1;
           id = e.Mqdp.Online.post.Mqdp.Post.id;
           time_hex = hex_of_float e.Mqdp.Online.emit_time;
         })

(* One tampered emission: the first one's time moved by one ulp (or a
   bogus emission when there are none). *)
let tamper_emissions = function
  | [] -> [ { eseq = 1; id = 0; time_hex = hex_of_float 0. } ]
  | e :: rest ->
    let t = Int64.float_of_bits (Int64.of_string ("0x" ^ e.time_hex)) in
    { e with time_hex = hex_of_float (Float.succ t) } :: rest

(* The positions of [ids] in [instance]; [None] if one is absent. *)
let positions instance ids =
  let pos = Hashtbl.create (Mqdp.Instance.size instance) in
  for i = 0 to Mqdp.Instance.size instance - 1 do
    Hashtbl.replace pos (Mqdp.Instance.post instance i).Mqdp.Post.id i
  done;
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | id :: rest -> (
      match Hashtbl.find_opt pos id with None -> None | Some p -> go (p :: acc) rest)
  in
  go [] ids

let valid_cover instance lambda ids =
  match positions instance ids with
  | None -> false
  | Some ps -> Mqdp.Coverage.is_cover instance (Mqdp.Coverage.Fixed lambda) ps

(* The planted fault for a cover: drop one post so that the rest no
   longer covers. [true] when such a removal exists and the check
   rejects it. *)
let rejects_tampered_cover valid ids =
  List.exists (fun drop -> not (valid (List.filter (( <> ) drop) ids))) ids

(* A QUERY answer to validate: its cover, and the range of TICKs that
   may have run on the daemon before it (the two connections are not
   ordered against each other, so any boundary in [lo, hi] is a
   legitimate window). *)
type query = { q_profile : Work.profile; cover : int list; lo : int; hi : int }

type query_result = { checked : int; valid : int; fault_rejected : bool }

(* Rebuild each queried profile's live window from the posts the
   publisher fed (a reference Feed with a window, advanced TICK by TICK)
   and check every cover with {!Mqdp.Coverage.is_cover} against the
   candidate windows. [feeds_before.(k)] is the number of posts fed
   before the k-th TICK (index 0: none ran). *)
let check_queries ~posts ~feeds_before queries =
  let by_profile = Hashtbl.create 16 in
  List.iter
    (fun q ->
      let name = q.q_profile.Work.name in
      Hashtbl.replace by_profile name
        (q :: Option.value ~default:[] (Hashtbl.find_opt by_profile name)))
    queries;
  let checked = ref 0 and valid = ref 0 and fault = ref None in
  Hashtbl.iter
    (fun _ qs ->
      let pr = (List.hd qs).q_profile in
      let feed = Mqdp.Feed.create ~window:true ~lambda:pr.Work.lambda pr.Work.mode in
      let pending = ref (List.map (fun q -> (q, ref false)) qs) in
      let fed = ref 0 in
      Array.iteri
        (fun k upto ->
          while !fed < upto do
            (match Work.project pr posts.(!fed) with
            | Some q -> ignore (Mqdp.Feed.push feed q)
            | None -> ());
            incr fed
          done;
          let here = List.filter (fun (q, ok) -> (not !ok) && q.lo <= k && k <= q.hi) !pending in
          if here <> [] then begin
            let w = Option.get (Mqdp.Feed.window feed) in
            let inst = Mqdp.Window_index.to_instance w in
            List.iter
              (fun (q, ok) ->
                if valid_cover inst pr.Work.lambda q.cover then begin
                  ok := true;
                  if !fault = None && q.cover <> [] then
                    fault :=
                      Some (rejects_tampered_cover (valid_cover inst pr.Work.lambda) q.cover)
                end)
              here
          end)
        feeds_before;
      List.iter
        (fun (_, ok) ->
          incr checked;
          if !ok then incr valid)
        !pending)
    by_profile;
  { checked = !checked; valid = !valid; fault_rejected = !fault = Some true }
