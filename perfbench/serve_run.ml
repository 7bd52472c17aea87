(* One serving workload against real mqdp_serve children, in rounds.
   Each round starts fresh daemons: set-up (several times, the last
   daemon kept), a capacity phase with a pipelined publisher, an
   open-loop phase at a fixed offered rate with the subscriber on its
   own seeded schedule, then the output checks. The run reports medians
   over rounds, apart from the CPU per TICK, whose percentiles are taken
   over the TICKs of all rounds.

   The gated figures are the daemon's CPU times, read from /proc: per
   post over the capacity phase, and per TICK in the open loop. The host
   takes its CPUs away for stretches of a minute or more (steal), and
   wall-clock figures of the same code then move by a third or more
   from one run to the next; the scheduler's run time leaves that out.
   The wall-clock figures are still measured and recorded. *)

open Work

let give_up = 5.0 (* seconds after its due time a request counts as lost *)
(* Generator lateness (p99) beyond which a run is marked invalid in its
   record: the open loop no longer offered the load it claims. Output
   checks decide [correct]; an invalid run is flagged, not failed, since a
   stalled host is not a fault of the program. *)
let lag_bound_ms = 25.0
(* A run is [rounds] rounds, each on fresh daemons, spread over the run:
   a host that slows down for a few seconds then touches one or two
   rounds' figures, not the medians over rounds. *)
let rounds = 6
let setups_per_round = 3

type env = {
  exe : string;
  out : string;  (* working directory for logs and state *)
  jobs : int;
  trace : bool;
}

type result = {
  metrics : Stats.metric list;  (* every figure, the per-workload names included *)
  headline : Stats.metric list;  (* the end-to-end set BENCHMARK.json gates *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  valid : bool;  (* the generator kept to its schedule: lag p99 within bound *)
  gen : Loadgen.t;  (* the measured daemon's request log *)
  stats_json : string option;  (* STATS of the telemetry daemon, traced runs *)
  capacity_from : int;  (* request-log index of the first capacity-phase request *)
  open_loop_from : int;  (* ... and of the first open-loop request *)
  fleet : Work.profile array;
  fed : Work.post list;  (* posts the publisher fed, in order *)
  redone : int option;  (* commands the restarted daemon redid (durable) *)
}

let tokens line = String.split_on_char ' ' line

(* [key=<int>] out of an OK line. *)
let field line key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some k when String.sub tok 0 k = key ->
        int_of_string_opt (String.sub tok (k + 1) (String.length tok - k - 1))
      | _ -> None)
    (tokens line)

let daemon_args env ~state_dir ~telemetry =
  [ "--jobs"; string_of_int env.jobs; "--idle-timeout"; "0" ]
  @ (match state_dir with Some d -> [ "--state-dir"; d ] | None -> [])
  @ if telemetry then [ "--telemetry" ] else []

(* The text after [<seq> OK ]. *)
let after_ok line =
  match String.index_opt line ' ' with
  | Some k when String.length line >= k + 4 -> String.sub line (k + 4) (String.length line - k - 4)
  | _ -> ""

(* Commands the restarted daemon re-executed from its journal, from the
   last recovery line of its log. *)
let count_redone log =
  let ic = open_in log in
  let rec go acc =
    match input_line ic with
    | line -> (
      match Scanf.sscanf line "mqdp_serve: replayed session journal (%d command" Fun.id with
      | n -> go n
      | exception _ -> go acc)
    | exception End_of_file -> acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0)

let hello g i name =
  let r = Loadgen.call ~seq0:true g i ("HELLO " ^ name) in
  match field r.Loadgen.final "seq" with
  | Some s -> Loadgen.set_seq g i s
  | None -> failwith ("bad HELLO answer: " ^ r.Loadgen.final)

(* Spawn, connect both clients, admit the fleet (pipelined), PING.
   Returns the daemon, the generator, the seconds it took, and the
   seconds of those after both connections were up (admission). *)
let setup env spec fleet ~state_dir ~telemetry =
  Option.iter
    (fun d ->
      Util.Fs.remove_tree d;
      Unix.mkdir d 0o755)
    state_dir;
  let log = Filename.concat env.out (spec.name ^ ".daemon.log") in
  let t0 = Util.Timer.now () in
  let d = Daemon.spawn ~exe:env.exe ~log (daemon_args env ~state_dir ~telemetry) in
  let pub = Daemon.connect d in
  let sub = Daemon.connect d in
  let g = Loadgen.create [| pub; sub |] in
  let t1 = Util.Timer.now () in
  if spec.durable then begin
    hello g 0 "pub";
    hello g 1 "sub"
  end;
  let bad = ref 0 in
  Array.iter
    (fun p ->
      ignore
        (Loadgen.wait_until g ~limit:(Util.Timer.now () +. 60.) (fun () ->
             Loadgen.conn_inflight g 0 < 64));
      ignore
        (Loadgen.send g 0 (add_line p) ~on_done:(fun r ->
             if r.Loadgen.final <> Printf.sprintf "%s OK added" (List.hd (tokens r.Loadgen.line))
             then incr bad)))
    fleet;
  ignore (Loadgen.call g 0 "PING");
  let t2 = Util.Timer.now () in
  if !bad > 0 then failwith (Printf.sprintf "%d ADD(s) were not admitted" !bad);
  (d, g, t2 -. t0, t2 -. t1)

(* Publisher-side bookkeeping shared by both phases: the posts fed, the
   TICK boundaries, and two latencies per post, both ending when the TICK
   that applied it returns: freshness from the post's own due time, and
   apply latency from the due time of the TICK that carried it, which
   leaves out the wait for the rest of its batch. *)
type pub = {
  mutable fed_rev : Work.post list;
  mutable n_fed : int;
  mutable ticks_sent : int;
  mutable ticks_done : int;
  mutable feeds_before_rev : int list;  (* per TICK sent, posts fed before it *)
  mutable batch : float list;  (* due times of posts since the last TICK *)
  mutable carry : (float * float) list;  (* (post due, TICK due) awaiting backlog=0 *)
  mutable fresh : float list;  (* seconds *)
  mutable apply : float list;  (* seconds *)
  mutable record_fresh : bool;
  daemon_cpu : unit -> float;  (* the daemon's CPU seconds so far *)
  mutable tick_cpu : float list;  (* daemon CPU seconds per recorded TICK *)
}

let new_pub daemon_cpu =
  {
    fed_rev = [];
    n_fed = 0;
    ticks_sent = 0;
    ticks_done = 0;
    feeds_before_rev = [];
    batch = [];
    carry = [];
    fresh = [];
    apply = [];
    record_fresh = false;
    daemon_cpu;
    tick_cpu = [];
  }

let send_feed ?due g st (p : Work.post) =
  st.fed_rev <- p :: st.fed_rev;
  st.n_fed <- st.n_fed + 1;
  let r = Loadgen.send ?due g 0 (feed_line p) in
  st.batch <- r.Loadgen.due :: st.batch;
  r

let send_tick ?due g st =
  let batch = st.batch in
  st.batch <- [];
  st.ticks_sent <- st.ticks_sent + 1;
  st.feeds_before_rev <- st.n_fed :: st.feeds_before_rev;
  let recording = st.record_fresh in
  (* The daemon's CPU time from the TICK's send to its answer: the work
     of applying the batch, without the time the host took away. *)
  let cpu0 = if recording then st.daemon_cpu () else 0. in
  Loadgen.send ?due g 0 "TICK" ~on_done:(fun r ->
      if recording then st.tick_cpu <- (st.daemon_cpu () -. cpu0) :: st.tick_cpu;
      st.ticks_done <- st.ticks_done + 1;
      st.carry <- List.map (fun d -> (d, r.Loadgen.due)) batch @ st.carry;
      if field r.Loadgen.final "backlog" = Some 0 then begin
        if recording then
          List.iter
            (fun (post_due, tick_due) ->
              st.fresh <- (r.Loadgen.recv -. post_due) :: st.fresh;
              st.apply <- (r.Loadgen.recv -. tick_due) :: st.apply)
            st.carry;
        st.carry <- []
      end)

(* TICK until the daemon reports an empty backlog. *)
let settle g st =
  let rec go n =
    let r = send_tick g st in
    if not (Loadgen.wait_until g ~limit:(Util.Timer.now () +. 60.) (fun () -> Loadgen.inflight g = 0))
    then failwith "daemon stopped answering";
    if field r.Loadgen.final "backlog" <> Some 0 && n < 100 then go (n + 1)
  in
  go 0

(* Capacity: keep [depth] publisher requests in flight until every post
   is acknowledged and applied; posts/s over the whole phase. *)
let capacity g st posts =
  let t0 = Util.Timer.now () in
  let n = Array.length posts and i = ref 0 and since = ref 0 in
  while !i < n do
    if Loadgen.conn_inflight g 0 < Work.depth then begin
      if !since = Work.tick_every then begin
        ignore (send_tick g st);
        since := 0
      end
      else begin
        ignore (send_feed g st posts.(!i));
        incr i;
        incr since
      end
    end
    else Loadgen.poll g ~timeout:0.05
  done;
  settle g st;
  float_of_int n /. (Util.Timer.now () -. t0)

type event = { at : float; conn : int; cmd : [ `Feed of Work.post | `Tick | `Checkpoint | `Report of string | `Query of string ] }

(* The open-loop schedule: Poisson FEEDs with a TICK due with every
   [tick_every]-th of them (and a CHECKPOINT every [checkpoint_every]
   publisher requests), and the subscriber's own Poisson REPORT and
   QUERY streams rotating over the fleet. *)
let schedule rng spec (fleet : Work.profile array) posts ~duration =
  let feeds = Work.arrivals rng ~rate:spec.rate ~duration in
  let n_posts = min (List.length feeds) (Array.length posts) in
  let pub = ref [] and k = ref 0 and reqs = ref 0 in
  List.iteri
    (fun i at ->
      if i < n_posts then begin
        pub := { at; conn = 0; cmd = `Feed posts.(i) } :: !pub;
        incr k;
        incr reqs;
        if !k = Work.tick_every then begin
          pub := { at; conn = 0; cmd = `Tick } :: !pub;
          k := 0;
          incr reqs
        end;
        if spec.checkpoint_every > 0 && !reqs mod spec.checkpoint_every = 0 then
          pub := { at; conn = 0; cmd = `Checkpoint } :: !pub
      end)
    feeds;
  let n = Array.length fleet in
  let offset = Util.Rng.int rng n in
  let sub kind rate =
    List.mapi
      (fun i at ->
        let name = fleet.((offset + i) mod n).name in
        { at; conn = 1; cmd = (if kind = `R then `Report name else `Query name) })
      (Work.arrivals rng ~rate ~duration)
  in
  let all = List.rev !pub @ sub `R spec.report_rate @ sub `Q spec.query_rate in
  List.stable_sort (fun a b -> compare a.at b.at) all

(* Latency of [r] from its due time; a failed request misses every
   limit, so it counts as the give-up time. *)
let latency ~failed r = if failed r then give_up else r.Loadgen.recv -. r.Loadgen.due

(* What one round yields. A round is a whole measurement on a fresh
   daemon: set-up, capacity, open loop, the closing requests and the
   output checks. *)
type round = {
  setups_s : (float * float) list;  (* (set-up, admission) seconds *)
  ingest : float;
  cap_cpu : float;  (* daemon CPU seconds per post, capacity phase *)
  r_tick_cpu : float list;
  r_fresh : float list;
  r_apply : float list;
  timed : Loadgen.req list;  (* capacity and open-loop requests *)
  open_loop : Loadgen.req list;
  n_failed : int;
  rss : float;
  recover : float option;
  r_checks : (string * bool) list;
  queries_checked : int * int;  (* (valid, checked) *)
  r_gen : Loadgen.t;
  r_stats_json : string option;
  r_capacity_from : int;
  r_open_loop_from : int;
  r_fed : Work.post list;
  r_redone : int option;
}

(* A round's inputs. Every round gets the same fleet and capacity posts,
   so capacity is measured again each round; each draws its own open-loop
   posts and schedule, so the pooled latencies cover more distinct
   TICKs. *)
type inputs = {
  fleet : Work.profile array;
  sample : Work.profile list;
  cap_posts : Work.post array;
  events : event list;
  last_post : Work.post;  (* durable: the line retried after kill -9 *)
}

let failed r =
  Float.is_nan r.Loadgen.recv
  || r.Loadgen.recv -. r.Loadgen.due > give_up
  || (not (Loadgen.answered_ok r))
  || (r.Loadgen.verb = "FEED" && field r.Loadgen.final "shed" <> Some 0)

let round env spec inp ~state_dir ~warm_up =
  let { fleet; sample; cap_posts; events; last_post } = inp in
  (* Set-up: on the first round one warm-up spawn (the binary's first
     start pays for page faults the others do not), then
     [setups_per_round] timed ones; the last daemon is the one measured. *)
  if warm_up then begin
    let d, g, _, _ = setup env spec fleet ~state_dir ~telemetry:env.trace in
    Loadgen.close g;
    Daemon.kill d
  end;
  let rec setup_n k acc =
    let d, g, s, a = setup env spec fleet ~state_dir ~telemetry:env.trace in
    if k = 1 then (d, g, List.rev ((s, a) :: acc))
    else begin
      Loadgen.close g;
      Daemon.kill d;
      setup_n (k - 1) ((s, a) :: acc)
    end
  in
  let d, g, setups_s = setup_n setups_per_round [] in
  let first_timed = g.Loadgen.count in
  let st = new_pub (fun () -> Daemon.cpu_s d) in
  let cpu0 = Daemon.cpu_s d in
  let ingest = capacity g st cap_posts in
  let cap_cpu = (Daemon.cpu_s d -. cpu0) /. float_of_int (Array.length cap_posts) in
  let emits = Hashtbl.create 64 in
  let sampled name = List.exists (fun (p : Work.profile) -> p.name = name) sample in
  let note_report name r =
    if sampled name then
      Hashtbl.replace emits name
        (Option.value ~default:[] (Hashtbl.find_opt emits name)
        @ List.filter_map Checks.parse_emit r.Loadgen.body)
  in
  let queries = ref [] in
  let ol_first = g.Loadgen.count in
  st.record_fresh <- true;
  let base = Util.Timer.now () +. 0.02 in
  List.iter
    (fun ev ->
      let due = base +. ev.at in
      let rec wait () =
        let now = Util.Timer.now () in
        if now < due then begin
          Loadgen.poll g ~timeout:(due -. now);
          wait ()
        end
      in
      wait ();
      match ev.cmd with
      | `Feed p -> ignore (send_feed ~due g st p)
      | `Tick -> ignore (send_tick ~due g st)
      | `Checkpoint -> ignore (Loadgen.send ~due g 0 "CHECKPOINT")
      | `Report name ->
        ignore (Loadgen.send ~due g 1 ("REPORT " ^ name) ~on_done:(note_report name))
      | `Query name ->
        let lo = st.ticks_done in
        let pr = Array.to_list fleet |> List.find (fun (p : Work.profile) -> p.name = name) in
        ignore
          (Loadgen.send ~due g 1 ("QUERY " ^ name) ~on_done:(fun r ->
               match List.find_opt (fun t -> String.length t > 6 && String.sub t 0 6 = "cover=") (tokens r.Loadgen.final) with
               | Some c ->
                 let ids = String.sub c 6 (String.length c - 6) in
                 let cover = if ids = "-" then [] else List.map int_of_string (String.split_on_char ',' ids) in
                 queries := { Checks.q_profile = pr; cover; lo; hi = st.ticks_sent } :: !queries
               | None -> ())))
    events;
  ignore
    (Loadgen.wait_until g ~limit:(Util.Timer.now () +. give_up) (fun () -> Loadgen.inflight g = 0));
  let ol_end = g.Loadgen.count in
  st.record_fresh <- false;
  settle g st;
  let timed =
    List.filter
      (fun r -> r.Loadgen.idx >= first_timed && r.Loadgen.idx < ol_end)
      (Loadgen.requests g)
  in
  let rss = Daemon.vm_hwm_mb d in
  let stats_json =
    if env.trace then Some (after_ok (Loadgen.call g 0 "STATS").Loadgen.final) else None
  in
  let recover = ref None and retry_ok = ref true and retry_fault = ref true and redone = ref None in
  if spec.durable then begin
    (* The last line the publisher sends is answered, but the client
       treats it as unacknowledged: kill -9, restart on the same state
       directory, and retry it verbatim. *)
    let last = { last_post with id = st.n_fed + 1_000_000; value = (List.hd st.fed_rev).value +. spec.step } in
    let r = Loadgen.call g 0 (feed_line last) in
    st.fed_rev <- last :: st.fed_rev;
    Loadgen.close g;
    Daemon.kill d;
    let t0 = Util.Timer.now () in
    let log = Filename.concat env.out (spec.name ^ ".daemon.log") in
    let d2 = Daemon.spawn ~exe:env.exe ~log (daemon_args env ~state_dir ~telemetry:false) in
    let g2 = Loadgen.create [| Daemon.connect d2; Daemon.connect d2 |] in
    hello g2 0 "pub";
    let r2 = Loadgen.call ~seq0:true g2 0 r.Loadgen.line in
    recover := Some (Util.Timer.now () -. t0);
    let same a b = a.Loadgen.final = b.Loadgen.final && a.Loadgen.body = b.Loadgen.body in
    retry_ok := same r2 r;
    (* Planted fault: the same comparison against a doctored original. *)
    retry_fault := not (same r2 { r with Loadgen.final = r.Loadgen.final ^ "0" });
    hello g2 1 "sub";
    ignore (Loadgen.call g2 0 "TICK");
    List.iter
      (fun (p : Work.profile) -> note_report p.name (Loadgen.call g2 1 ("REPORT " ^ p.name)))
      sample;
    redone := Some (count_redone log);
    Loadgen.close g2;
    Daemon.kill d2
  end
  else begin
    (* Final REPORTs of the sampled profiles complete their histories. *)
    List.iter
      (fun (p : Work.profile) -> note_report p.name (Loadgen.call g 1 ("REPORT " ^ p.name)))
      sample;
    Loadgen.close g;
    Daemon.kill d
  end;
  let fed = List.rev st.fed_rev in
  (* Checks, each with its planted fault. *)
  let report_ok, report_fault =
    List.fold_left
      (fun (ok, fault) (p : Work.profile) ->
        let reported = Option.value ~default:[] (Hashtbl.find_opt emits p.name) in
        let reference = Checks.reference_emissions p fed in
        (ok && reported = reference, fault && Checks.tamper_emissions reported <> reference))
      (true, true) sample
  in
  let queries_checked, query_checks =
    if spec.query_rate > 0. then begin
      let feeds_before = Array.of_list (0 :: List.rev st.feeds_before_rev) in
      let q = Checks.check_queries ~posts:(Array.of_list fed) ~feeds_before !queries in
      ((q.Checks.valid, q.Checks.checked), [ ("planted cover fault caught", q.Checks.fault_rejected) ])
    end
    else ((0, 0), [])
  in
  {
    setups_s;
    ingest;
    cap_cpu;
    r_tick_cpu = st.tick_cpu;
    r_fresh = st.fresh;
    r_apply = st.apply;
    timed;
    open_loop = List.filter (fun r -> r.Loadgen.idx >= ol_first) timed;
    n_failed = List.length (List.filter failed timed);
    rss;
    recover = !recover;
    r_checks =
      [ ("reports match the Feed reference", report_ok); ("planted emission fault caught", report_fault) ]
      @ query_checks
      @ (if spec.durable then
           [ ("retry after kill -9 returns the original response", !retry_ok);
             ("planted retry fault caught", !retry_fault) ]
         else []);
    queries_checked;
    r_gen = g;
    r_stats_json = stats_json;
    r_capacity_from = first_timed;
    r_open_loop_from = ol_first;
    r_fed = fed;
    r_redone = !redone;
  }

let run env spec ~seed ~seconds =
  let rng = Util.Rng.create seed in
  let fleet = Work.fleet spec rng in
  let sample = Array.to_list (Array.sub fleet 0 (min spec.sample (Array.length fleet))) in
  let state_dir =
    if spec.durable then Some (Filename.concat env.out (spec.name ^ ".state")) else None
  in
  let cap_posts = Work.make_posts spec rng spec.cap_posts in
  (* Open loop: half the run, split over the rounds; the capacity
     phases take most of the rest. *)
  let duration = Float.max 1. (seconds *. 0.5 /. float_of_int rounds) in
  let last_post = (Work.make_posts spec rng 1).(0) in
  let inputs =
    List.init rounds (fun _ ->
        let ol_posts =
          Array.map
            (fun (p : Work.post) ->
              { p with id = p.id + spec.cap_posts; value = p.value +. (float_of_int spec.cap_posts *. spec.step) })
            (Work.make_posts spec rng (int_of_float (spec.rate *. duration *. 1.5) + 16))
        in
        { fleet; sample; cap_posts; events = schedule rng spec fleet ol_posts ~duration; last_post })
  in
  let rs = List.mapi (fun k inp -> round env spec inp ~state_dir ~warm_up:(k = 0)) inputs in
  let last = List.nth rs (rounds - 1) in
  let all f = List.concat_map f rs in
  let setup_pairs = all (fun r -> r.setups_s) in
  let setup_samples = List.map fst setup_pairs in
  let timed = all (fun r -> r.timed) in
  let open_loop = all (fun r -> r.open_loop) in
  let n_failed = List.fold_left (fun a r -> a + r.n_failed) 0 rs in
  let lat verb =
    List.filter_map
      (fun r -> if r.Loadgen.verb = verb then Some (latency ~failed r) else None)
      open_loop
  in
  let lags = List.map (fun r -> r.Loadgen.sent -. r.Loadgen.due) open_loop in
  let ingest = Stats.median (List.map (fun r -> r.ingest) rs) in
  let rss = Stats.median (List.map (fun r -> r.rss) rs) in
  let fresh = all (fun r -> r.r_fresh) and apply_s = all (fun r -> r.r_apply) in
  let q_valid, q_checked =
    List.fold_left (fun (v, c) r -> (v + fst r.queries_checked, c + snd r.queries_checked)) (0, 0) rs
  in
  (* A check passes when it passed in every round. *)
  let checks =
    List.mapi
      (fun i (name, _) -> (name, List.for_all (fun r -> snd (List.nth r.r_checks i)) rs))
      last.r_checks
    @
    if spec.query_rate > 0. then
      [ (Printf.sprintf "QUERY covers valid (%d/%d)" q_valid q_checked, q_checked > 0 && q_valid = q_checked) ]
    else []
  in
  let lag_p99_ms = Stats.pct (Stats.sorted lags) 99. *. 1e3 in
  let m = Stats.metric in
  let dist name unit_ scale xs =
    let a = Stats.sorted xs in
    let n = Array.length a in
    [ m ~samples:n (name ^ "_p50_" ^ unit_) unit_ (Stats.pct a 50. *. scale);
      m ~samples:n (name ^ "_p99_" ^ unit_) unit_ (Stats.pct a 99. *. scale) ]
  in
  let n_setups = List.length setup_samples in
  let recovers = List.filter_map (fun r -> r.recover) rs in
  let metrics =
    [ m ~samples:n_setups "setup_s" "s" (Stats.median setup_samples);
      m ~samples:n_setups "setup.admit_s" "s" (Stats.median (List.map snd setup_pairs));
      m ~samples:rounds "ingest_posts_per_s" "posts/s" ingest ]
    @ dist "feed" "us" 1e6 (lat "FEED")
    @ dist "fresh" "ms" 1e3 fresh
    @ dist "apply" "ms" 1e3 apply_s
    @ dist "report" "us" 1e6 (lat "REPORT")
    @ (if spec.query_rate > 0. then dist "query" "ms" 1e3 (lat "QUERY") else [])
    @ [ m ~samples:(List.length timed) "fail_ratio" "1" (Stats.ratio n_failed (List.length timed));
        m ~samples:rounds "server_rss_mb" "MiB" rss ]
    @ (if recovers = [] then [] else [ m ~samples:(List.length recovers) "recover_s" "s" (Stats.median recovers) ])
    @ [ m ~samples:(List.length lags) "loadgen.lag_p99_ms" "ms" lag_p99_ms;
        m "loadgen.sent" "count" (float_of_int (List.length timed)) ]
  in
  (* The headline latency is apply latency: from the due time of the
     TICK that carried a post until the TICK that applied it answers,
     i.e. until its emissions can be reported. The wait for the rest of
     its batch (in freshness) is the generator's cadence, not the
     daemon's work. The tail is p90: a host stall of a few hundred ms
     moves p99 of a run's samples but not p90. Wall-clock figures are
     taken in each round and reported as the median over rounds. The
     gated ones are CPU times (see the top of this file): the daemon's
     CPU per post over the capacity phase (median over rounds), and the
     p50 and p90 of its CPU per open-loop TICK, pooled over rounds since
     a host stall does not touch them; they are what apply latency
     comes to on a host that takes nothing away. *)
  let over_rounds f = Stats.median (List.map f rs) in
  let round_pct xs p = over_rounds (fun r -> Stats.pct (Stats.sorted (xs r)) p *. 1e3) in
  List.iteri
    (fun k r ->
      let a = Stats.sorted r.r_apply and c = Stats.sorted r.r_tick_cpu in
      Printf.printf
        "round %d: capacity %.1f posts/s, %.1f us CPU/post; apply p50 %.2f p90 %.2f ms; TICK CPU p50 %.2f p90 %.2f ms\n"
        k r.ingest (r.cap_cpu *. 1e6) (Stats.pct a 50. *. 1e3) (Stats.pct a 90. *. 1e3)
        (Stats.pct c 50. *. 1e3) (Stats.pct c 90. *. 1e3))
    rs;
  let n_apply = List.length apply_s in
  let tick_cpu = Stats.sorted (all (fun r -> r.r_tick_cpu)) in
  let n_ticks = Array.length tick_cpu in
  let wall =
    [ m ~samples:n_apply "latency_p50_ms" "ms" (round_pct (fun r -> r.r_apply) 50.);
      m ~samples:n_apply "latency_tail_ms" "ms" (round_pct (fun r -> r.r_apply) 90.) ]
  in
  let headline =
    [ m ~samples:n_setups "setup_s" "s" (Stats.median setup_samples);
      m ~samples:rounds "cpu_us_per_post" "us" (over_rounds (fun r -> r.cap_cpu) *. 1e6);
      m ~samples:n_ticks "batch_cpu_p50_ms" "ms" (Stats.pct tick_cpu 50. *. 1e3);
      m ~samples:n_ticks "batch_cpu_tail_ms" "ms" (Stats.pct tick_cpu 90. *. 1e3);
      m ~samples:rounds "peak_rss_mb" "MiB" rss ]
  in
  let metrics = metrics @ wall in
  {
    metrics;
    headline;
    attempted = List.length timed;
    failed = n_failed;
    checks;
    valid = lag_p99_ms <= lag_bound_ms;
    gen = last.r_gen;
    stats_json = last.r_stats_json;
    capacity_from = last.r_capacity_from;
    open_loop_from = last.r_open_loop_from;
    fleet;
    fed = last.r_fed;
    redone = last.r_redone;
  }
