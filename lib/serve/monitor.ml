(* The accuracy-drift monitor.

   The decomposition framework trades exactness for speed; whether that
   trade is still sound on the live workload is only knowable by spending
   a little exactness: sample a configurable fraction of served queries,
   replay each sampled query against an exact oracle, and keep the
   relative errors in a sliding window.  When the window's p90 crosses
   the alarm threshold the summary has drifted from the data (or the
   workload has drifted into a correlated region the independence
   assumption mishandles) and it is time to rebuild or re-mine.

   All state — the rng driving sampling decisions, the error window, the
   alarm — lives behind one mutex, so a monitor can be shared by
   concurrent serving batches.  The expensive part (the exact replay)
   runs outside that mutex; [oracle_of_tree] serializes its own counting
   context internally.  Within one batch the engine draws sampling
   decisions on the caller domain in query order, so a fixed seed and a
   fixed query sequence give a fully deterministic trace — the golden
   test's lever. *)

module Twig = Tl_twig.Twig
module Metrics = Tl_obs.Metrics
module Log = Tl_obs.Log

(* The monitor's series, labelled with its dataset. *)
type series = {
  sampled : Metrics.counter;
  rel_errors : Metrics.histogram;
  raised : Metrics.counter;
  alarm_gauge : Metrics.gauge;
  samples_gauge : Metrics.gauge;
  quantiles : (float * Metrics.gauge) list;  (* window p50, p90 and p99 (ppm) *)
}

let series dataset =
  let labels = [ ("dataset", dataset) ] in
  let counter = Metrics.counter ~labels and gauge = Metrics.gauge ~labels in
  let quantile p =
    ( float_of_int p /. 100.0,
      gauge
        ~help:(Printf.sprintf "Sliding-window p%d relative error (ppm)" p)
        (Printf.sprintf "drift.rel_error_p%d_ppm" p) )
  in
  {
    sampled = counter ~help:"Served queries replayed against the exact oracle" "drift.sampled";
    rel_errors =
      Metrics.histogram ~labels ~help:"Distribution of sampled relative errors (parts per million)"
        "drift.rel_error_ppm";
    raised = counter ~help:"Times the drift alarm has been raised" "drift.alarm_transitions";
    alarm_gauge = gauge ~help:"1 while the drift alarm is raised" "drift.alarm";
    samples_gauge =
      gauge ~help:"Sampled queries currently informing the drift window" "drift.samples";
    quantiles = List.map quantile [ 50; 90; 99 ];
  }

type t = {
  series : series;
  sample_rate : float;
  threshold : float;
  min_samples : int;
  oracle : Twig.Key.t -> float;
  mutex : Mutex.t;
  rng : Tl_util.Xorshift.t;  (* guarded by [mutex] *)
  window : float array;  (* sliding window of relative errors, guarded *)
  mutable window_n : int;
  mutable window_next : int;
  mutable samples : int;
  mutable alarm : bool;
  mutable alarm_transitions : int;
}

let create ?(sample_rate = 0.01) ?(window = 512) ?(threshold = 1.0) ?(min_samples = 16)
    ?(seed = 42) ~dataset ~oracle () =
  if not (Float.is_finite sample_rate) || sample_rate < 0.0 || sample_rate > 1.0 then
    invalid_arg "Monitor.create: sample_rate must be in [0, 1]";
  if window < 1 then invalid_arg "Monitor.create: window must be >= 1";
  if not (threshold > 0.0) then invalid_arg "Monitor.create: threshold must be > 0";
  (* A rebuilt bundle's monitor starts with an empty window and no alarm,
     so its dataset's gauges start over with it. *)
  let series = series dataset in
  List.iter (fun g -> Metrics.set g 0)
    (series.alarm_gauge :: series.samples_gauge :: List.map snd series.quantiles);
  {
    series;
    sample_rate;
    threshold;
    min_samples = max 1 min_samples;
    oracle;
    mutex = Mutex.create ();
    rng = Tl_util.Xorshift.create seed;
    window = Array.make window 0.0;
    window_n = 0;
    window_next = 0;
    samples = 0;
    alarm = false;
    alarm_transitions = 0;
  }

let sample_rate t = t.sample_rate

let threshold t = t.threshold

(* --- oracles -------------------------------------------------------------- *)

(* Exact replay against a document.  Match_count contexts are not
   domain-safe (shared counting buffers), so the closure owns one context
   behind its own lock — the replay serializes, which is fine for a
   sampled slow path. *)
let oracle_of_tree tree =
  let ctx = Tl_twig.Match_count.create_ctx tree in
  let m = Mutex.create () in
  fun key ->
    Mutex.lock m;
    let count =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m)
        (fun () -> Tl_twig.Match_count.selectivity ctx (Twig.Key.twig key))
    in
    float_of_int count

(* Exact replay through the adaptive layer: the count is computed against
   the layer's base document AND recorded as feedback, so every sampled
   query also improves future estimates — the XPathLearner-style loop.
   [Adaptive.observe_exact] is single-domain by contract; the engine only
   calls oracles from the batch caller domain, which satisfies it. *)
let oracle_of_adaptive adaptive =
 fun key -> float_of_int (Tl_core.Adaptive.observe_exact adaptive (Twig.Key.twig key))

(* --- sampling ------------------------------------------------------------- *)

let consider t key =
  if t.sample_rate <= 0.0 then None
  else begin
    Mutex.lock t.mutex;
    let sampled =
      t.sample_rate >= 1.0 || Tl_util.Xorshift.float t.rng 1.0 < t.sample_rate
    in
    Mutex.unlock t.mutex;
    if not sampled then None
    else begin
      Metrics.incr t.series.sampled;
      Some (t.oracle key)
    end
  end

let rel_error ~exact ~estimate =
  Float.abs (estimate -. exact) /. Float.max 1.0 (Float.abs exact)

(* Exact order statistic over a sorted copy: index round(q * (n-1)). *)
let quantile_of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))
  end

let sorted_window_locked t =
  let arr = Array.sub t.window 0 t.window_n in
  Array.sort compare arr;
  arr

let ppm x = int_of_float (Float.min 1e12 (x *. 1e6))

let observe t ~exact ~estimate =
  let err = rel_error ~exact ~estimate in
  Mutex.lock t.mutex;
  t.window.(t.window_next) <- err;
  t.window_next <- (t.window_next + 1) mod Array.length t.window;
  if t.window_n < Array.length t.window then t.window_n <- t.window_n + 1;
  t.samples <- t.samples + 1;
  let sorted = sorted_window_locked t in
  let p90 = quantile_of_sorted sorted 0.90 in
  let alarm_now = t.window_n >= t.min_samples && p90 >= t.threshold in
  let transition = alarm_now <> t.alarm in
  if transition && alarm_now then t.alarm_transitions <- t.alarm_transitions + 1;
  t.alarm <- alarm_now;
  let samples = t.samples in
  Mutex.unlock t.mutex;
  let s = t.series in
  Metrics.observe s.rel_errors (ppm err);
  Metrics.set s.samples_gauge samples;
  List.iter (fun (q, g) -> Metrics.set g (ppm (quantile_of_sorted sorted q))) s.quantiles;
  if transition then begin
    Metrics.set s.alarm_gauge (if alarm_now then 1 else 0);
    if alarm_now then begin
      Metrics.incr s.raised;
      Log.warn (fun m ->
          m "drift alarm raised: window p90 relative error %.3f >= threshold %.3f (%d samples)"
            p90 t.threshold samples)
    end
    else
      Log.info (fun m ->
          m "drift alarm cleared: window p90 relative error %.3f < threshold %.3f" p90 t.threshold)
  end;
  err

let quantile t q =
  Mutex.lock t.mutex;
  let sorted = sorted_window_locked t in
  Mutex.unlock t.mutex;
  quantile_of_sorted sorted q

let alarm t =
  Mutex.lock t.mutex;
  let a = t.alarm in
  Mutex.unlock t.mutex;
  a

type stats = {
  samples : int;
  window_n : int;
  p50 : float;
  p90 : float;
  p99 : float;
  alarm : bool;
  alarm_transitions : int;
}

let stats t =
  Mutex.lock t.mutex;
  let sorted = sorted_window_locked t in
  let s =
    {
      samples = t.samples;
      window_n = t.window_n;
      p50 = quantile_of_sorted sorted 0.50;
      p90 = quantile_of_sorted sorted 0.90;
      p99 = quantile_of_sorted sorted 0.99;
      alarm = t.alarm;
      alarm_transitions = t.alarm_transitions;
    }
  in
  Mutex.unlock t.mutex;
  s

let pp_stats s =
  Printf.sprintf
    "drift: %d sampled, window %d, rel error p50 %.4f p90 %.4f p99 %.4f, alarm %s (%d raised)"
    s.samples s.window_n
    (if Float.is_nan s.p50 then 0.0 else s.p50)
    (if Float.is_nan s.p90 then 0.0 else s.p90)
    (if Float.is_nan s.p99 then 0.0 else s.p99)
    (if s.alarm then "RAISED" else "ok")
    s.alarm_transitions
