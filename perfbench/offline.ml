(* The library/CLI path no serving verb reaches: load a seeded one-day
   stream with 20 labels from TSV (the shape of `bench --exp kernels`
   1day/L20) and run Solver.solve — compile plus solve — with GreedySC
   and with Scan+, back to back, for the whole run. Each pair is timed
   on the wall clock and in CPU time (this process's run time from
   getrusage, which leaves out time the host took the CPU away); the
   gated figures are the CPU times, as for the serving workloads. *)

let lambda_value = 30.
let lambda = Mqdp.Coverage.Fixed lambda_value
let setups = 15

(* The run's pairs are cut, in the order they ran, into [segments]
   equal parts; each timing is taken in every part and reported as the
   median over parts, so a host that slows down for a few seconds moves
   one or two parts, not the figure. A run solves at least [min_pairs]
   pairs: p90, the reported tail, then has ten samples beyond it in
   every part. *)
let segments = 5
let min_pairs = 100 * segments

(* One simulated day at the kernels experiment's 20-label rate. *)
let config seed =
  {
    (Workload.Direct_gen.default_config ~num_labels:20 ~seed) with
    Workload.Direct_gen.duration = 86_400.;
    rate_per_min = 11.8;
    overlap_probs = [| 0.8; 0.15; 0.05 |];
    bursts_per_hour = 0.;
  }

type result = {
  metrics : Stats.metric list;
  headline : Stats.metric list;
  attempted : int;
  checks : (string * bool) list;
  instance : Mqdp.Instance.t;
  tsv : string;
}

let timed f =
  let t0 = Util.Timer.now () in
  let r = f () in
  (r, Util.Timer.now () -. t0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()], its wall seconds and its CPU seconds. *)
let timed_cpu f =
  let c0 = cpu_s () in
  let r, wall = timed f in
  (r, wall, cpu_s () -. c0)

let run ~out ~seed ~seconds =
  let posts = Workload.Direct_gen.generate (config seed) in
  let tsv = Filename.concat out "offline_solve.tsv" in
  Workload.Post_io.save tsv posts;
  let reference = Mqdp.Instance.create posts in
  let load () = Mqdp.Instance.create (Workload.Post_io.load tsv) in
  (* Set-up is sampled [setups] times, spread evenly over the run, each
     load from a collected heap, as each solve pair is. *)
  let setup_samples = ref [] in
  let sample_setup () =
    Gc.full_major ();
    setup_samples := snd (timed load) :: !setup_samples
  in
  sample_setup ();
  let inst = load () in
  let n = Mqdp.Instance.size inst in
  let solve alg = timed_cpu (fun () -> Mqdp.Solver.solve alg inst lambda) in
  let start = Util.Timer.now () in
  let deadline = start +. seconds in
  (* The first pair's covers are kept; every later pair is compared with
     them and only its times are kept, so memory does not grow with the
     number of pairs the host's speed allows. *)
  let first = ref None and stable = ref true in
  let rec loop acc =
    if Util.Timer.now () -. start >= seconds *. float_of_int (List.length !setup_samples) /. float_of_int setups
       && List.length !setup_samples < setups
    then sample_setup ();
    (* Every pair starts from the same collected heap. *)
    Gc.full_major ();
    let g, tg, cg = solve Mqdp.Solver.Greedy_sc in
    let s, ts, cs = solve Mqdp.Solver.Scan_plus in
    (match !first with
    | None -> first := Some (g.Mqdp.Solver.cover, s.Mqdp.Solver.cover)
    | Some (g0, s0) -> if g.Mqdp.Solver.cover <> g0 || s.Mqdp.Solver.cover <> s0 then stable := false);
    let acc = ((tg, ts), cg +. cs) :: acc in
    if Util.Timer.now () < deadline || List.length acc < min_pairs then loop acc else List.rev acc
  in
  let pairs = loop [] in
  while List.length !setup_samples < setups do
    sample_setup ()
  done;
  let setup_samples = !setup_samples in
  (* Checks: every cover is the same valid cover, of the size the
     in-process reference (solving the generated instance directly, not
     the TSV round trip) finds; the planted fault drops one post. *)
  let ref_greedy = Mqdp.Solver.run Mqdp.Solver.Greedy_sc reference lambda in
  let ref_scan = Mqdp.Solver.run Mqdp.Solver.Scan_plus reference lambda in
  let g0, s0 = Option.get !first in
  let valid c = Mqdp.Coverage.is_cover inst lambda c in
  let checks =
    [
      ("GreedySC cover valid", valid g0);
      ("Scan+ cover valid", valid s0);
      ("cover sizes equal the in-process reference",
       List.length g0 = List.length ref_greedy && List.length s0 = List.length ref_scan);
      ("every repeated solve returns the same cover", !stable);
      ("planted cover fault caught", Checks.rejects_tampered_cover valid g0);
    ]
  in
  let tg = List.map (fun ((g, _), _) -> g) pairs and ts = List.map (fun ((_, s), _) -> s) pairs in
  let wall = Array.of_list (List.map (fun ((g, s), _) -> g +. s) pairs) in
  let cpu = Array.of_list (List.map snd pairs) in
  let np = Array.length wall in
  let parts a =
    List.init segments (fun k ->
        let lo = k * np / segments and hi = (k + 1) * np / segments in
        Array.sub a lo (hi - lo))
  in
  let over_parts a f = Stats.median (List.map f (parts a)) in
  let pct_over_parts a p = over_parts a (fun a -> Stats.pct (Stats.sorted (Array.to_list a)) p) in
  let per_s a = float_of_int (n * Array.length a) /. Array.fold_left ( +. ) 0. a in
  let m = Stats.metric in
  let setup_s = Stats.median setup_samples in
  let rss = Daemon.self_hwm_mb () in
  let metrics =
    [ m ~samples:setups "setup_s" "s" setup_s;
      m ~samples:np "solve_greedy_posts_per_s" "posts/s" (float_of_int n /. Stats.median tg);
      m ~samples:np "solve_scanplus_posts_per_s" "posts/s" (float_of_int n /. Stats.median ts);
      m "instance_posts" "count" (float_of_int n);
      m "cover_greedy" "count" (float_of_int (List.length g0));
      m "cover_scanplus" "count" (float_of_int (List.length s0));
      m "peak_rss_mb" "MiB" rss;
      m ~samples:np "posts_per_s" "posts/s" (over_parts wall per_s);
      m ~samples:np "latency_p50_ms" "ms" (pct_over_parts wall 50. *. 1e3);
      m ~samples:np "latency_tail_ms" "ms" (pct_over_parts wall 90. *. 1e3) ]
  in
  let headline =
    [ m ~samples:setups "setup_s" "s" setup_s;
      m ~samples:np "cpu_us_per_post" "us" (1e6 /. over_parts cpu per_s);
      m ~samples:np "batch_cpu_p50_ms" "ms" (pct_over_parts cpu 50. *. 1e3);
      m ~samples:np "batch_cpu_tail_ms" "ms" (pct_over_parts cpu 90. *. 1e3);
      m "peak_rss_mb" "MiB" rss ]
  in
  { metrics; headline; attempted = 2 * np; checks; instance = inst; tsv }
