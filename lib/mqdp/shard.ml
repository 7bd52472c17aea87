type config = {
  queue_capacity : int;
  tick_steps : int option;
}

type counters = {
  acked : int;
  shed : int;
  applied : int;
}

type t = {
  config : config;
  table : (string, Profile.t) Hashtbl.t;
  mutable order : Profile.t list;  (* sorted by name; rebuilt when dirty *)
  mutable order_dirty : bool;
  mutable backlog : int;
  mutable acked : int;
  mutable shed : int;
  mutable applied : int;
}

let create config =
  if config.queue_capacity < 1 then invalid_arg "Shard.create: queue_capacity < 1";
  (match config.tick_steps with
  | Some n when n < 1 -> invalid_arg "Shard.create: tick_steps < 1"
  | _ -> ());
  {
    config;
    table = Hashtbl.create 64;
    order = [];
    order_dirty = false;
    backlog = 0;
    acked = 0;
    shed = 0;
    applied = 0;
  }

let config t = t.config

let add t profile =
  let name = Profile.name profile in
  if Hashtbl.mem t.table name then
    invalid_arg (Printf.sprintf "Shard.add: duplicate profile %S" name);
  Hashtbl.add t.table name profile;
  t.order <- profile :: t.order;
  t.order_dirty <- true;
  t.backlog <- t.backlog + Profile.pending profile

let remove t name =
  match Hashtbl.find_opt t.table name with
  | None -> false
  | Some profile ->
    Hashtbl.remove t.table name;
    t.order <- List.filter (fun p -> p != profile) t.order;
    t.backlog <- t.backlog - Profile.pending profile;
    true

let find t name = Hashtbl.find_opt t.table name
let profile_count t = Hashtbl.length t.table

let profiles t =
  if t.order_dirty then begin
    t.order <-
      List.sort (fun p q -> String.compare (Profile.name p) (Profile.name q)) t.order;
    t.order_dirty <- false
  end;
  t.order

let backlog t = t.backlog
let counters t = { acked = t.acked; shed = t.shed; applied = t.applied }

let crash_count t =
  Hashtbl.fold (fun _ p acc -> acc + Profile.crashes p) t.table 0

let quarantined_count t =
  Hashtbl.fold (fun _ p acc -> acc + if Profile.quarantined p then 1 else 0)
    t.table 0

let offer t profile post =
  if t.backlog >= t.config.queue_capacity || Profile.quarantined profile then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    Profile.offer profile post;
    t.backlog <- t.backlog + 1;
    t.acked <- t.acked + 1;
    true
  end

let tick ?chaos ?deadline t =
  let budget =
    match (t.config.tick_steps, deadline) with
    | None, None -> Util.Budget.unlimited
    | max_steps, deadline -> Util.Budget.create ?deadline ?max_steps ()
  in
  let applied = ref 0 in
  let rec walk = function
    | [] -> ()
    | profile :: rest ->
      if not (Profile.quarantined profile) then begin
        let n = Profile.process ?chaos ~budget profile in
        applied := !applied + n;
        t.backlog <- t.backlog - n
      end;
      if not (Util.Budget.should_stop budget) then walk rest
  in
  walk (profiles t);
  t.applied <- t.applied + !applied;
  !applied

exception Corrupt of string

let magic = "mqdp-shard-snapshot"
let version = 1

let snapshot t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s v%d" magic version;
  line "config %d %s" t.config.queue_capacity
    (match t.config.tick_steps with None -> "none" | Some n -> string_of_int n);
  line "counters %d %d %d" t.acked t.shed t.applied;
  line "profiles %d" (Hashtbl.length t.table);
  List.iter
    (fun p ->
      Buffer.add_string b "P ";
      Buffer.add_string b (String.escaped (Profile.blob p));
      Buffer.add_char b '\n')
    (profiles t);
  let sum = Util.Hash.fnv1a64 (Buffer.contents b) in
  Buffer.add_string b "checksum ";
  Util.Hash.add_hex64 b sum;
  Buffer.add_char b '\n';
  Buffer.contents b

let restore s =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  (* Split off and verify the trailing checksum line first. *)
  let body, checksum_line =
    match String.rindex_opt (String.trim s) '\n' with
    | None -> corrupt "no checksum line"
    | Some i ->
      let trimmed = String.trim s in
      (String.sub trimmed 0 (i + 1), String.sub trimmed (i + 1) (String.length trimmed - i - 1))
  in
  (match String.split_on_char ' ' checksum_line with
  | [ "checksum"; hex ] ->
    if Util.Hash.hex64 (Util.Hash.fnv1a64 body) <> hex then corrupt "checksum mismatch"
  | _ -> corrupt "bad checksum line");
  let lines = ref (List.filter (fun l -> l <> "") (String.split_on_char '\n' body)) in
  let next () =
    match !lines with
    | l :: rest ->
      lines := rest;
      l
    | [] -> corrupt "truncated snapshot"
  in
  (match String.split_on_char ' ' (next ()) with
  | [ m; v ] when m = magic ->
    if v <> Printf.sprintf "v%d" version then corrupt "unsupported version %s" v
  | _ -> corrupt "bad magic line");
  let config =
    match String.split_on_char ' ' (next ()) with
    | [ "config"; cap; steps ] -> (
      match (int_of_string_opt cap, steps) with
      | Some queue_capacity, "none" -> { queue_capacity; tick_steps = None }
      | Some queue_capacity, steps -> (
        match int_of_string_opt steps with
        | Some n -> { queue_capacity; tick_steps = Some n }
        | None -> corrupt "bad tick_steps")
      | None, _ -> corrupt "bad queue_capacity")
    | _ -> corrupt "bad config line"
  in
  let acked, shed, applied =
    match String.split_on_char ' ' (next ()) with
    | [ "counters"; a; s; ap ] -> (
      match (int_of_string_opt a, int_of_string_opt s, int_of_string_opt ap) with
      | Some a, Some s, Some ap -> (a, s, ap)
      | _ -> corrupt "bad counters line")
    | _ -> corrupt "bad counters line"
  in
  let count =
    match String.split_on_char ' ' (next ()) with
    | [ "profiles"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | _ -> corrupt "bad profile count")
    | _ -> corrupt "bad profiles line"
  in
  let t = create config in
  for _ = 1 to count do
    let l = next () in
    if String.length l < 2 || String.sub l 0 2 <> "P " then
      corrupt "bad profile line";
    let blob =
      try Scanf.unescaped (String.sub l 2 (String.length l - 2))
      with Scanf.Scan_failure _ -> corrupt "bad profile escaping"
    in
    match Profile.of_blob blob with
    | p -> add t p
    | exception Feed.Corrupt m -> corrupt "profile blob: %s" m
  done;
  (* [add] already recomputed the backlog from the restored journals;
     the monotone totals come from the snapshot. *)
  t.acked <- acked;
  t.shed <- shed;
  t.applied <- applied;
  t
