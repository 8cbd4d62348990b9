(* Cross-layer differential fuzzing.

   One seeded case generates a random document and a random twig set with
   sizes straddling the lattice depth, then asserts pairwise bit-identity
   of every estimation path the system stacks on the paper's two
   decomposition schemes:

   - [Estimator.estimate] ("direct": compile-then-eval) vs a freshly
     compiled [Estimator.Plan.eval], per scheme, with and without an
     [?extra] feedback source;
   - both vs the seed string-keyed reference path ([Tl_oracle.Baseline]),
     the one evaluator independent of the compiled plan;
   - [Tl_serve.Engine.batch] (deduped, sequential and across a domain
     pool) vs the per-call estimator;
   - estimation over a [Summary_io] save/load round trip vs the original
     summary;
   - for twigs within the lattice depth, the estimate vs the exact
     [Match_count] answer (complete summaries store those counts).

   Everything is derived deterministically from the case seed via
   {!Tl_util.Xorshift}, so a failing case is reproducible from one
   integer; [describe_case] renders the full recipe for the minimal
   reproducer the driver prints. *)

module Xorshift = Tl_util.Xorshift
module TB = Tl_tree.Tree_builder
module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Summary = Tl_lattice.Summary
module Summary_io = Tl_lattice.Summary_io
module Estimator = Tl_core.Estimator
module Baseline = Tl_oracle.Baseline
module Engine = Tl_serve.Engine
module Pool = Tl_util.Pool

let alphabet = [| "a"; "b"; "c"; "d"; "e"; "f" |]

(* --- seeded generators --------------------------------------------------- *)

(* A random document spec: at most [max_nodes] nodes, fan-out <= 4, labels
   from a prefix of the alphabet — the same envelope as the qcheck
   generators in test/helpers.ml, but driven by an explicit Xorshift state
   so a case is replayable from its seed alone. *)
let gen_spec rng ~nlabels ~max_nodes =
  let label () = alphabet.(Xorshift.int rng nlabels) in
  let rec build budget =
    let l = label () in
    if budget <= 1 then TB.leaf l
    else begin
      let nkids = Xorshift.int rng (min 4 budget) in
      if nkids = 0 then TB.leaf l
      else begin
        let per_child = max 1 ((budget - 1) / nkids) in
        TB.node l (List.init nkids (fun _ -> build per_child))
      end
    end
  in
  build max_nodes

let rec element_to_string (el : Tl_xml.Xml_dom.element) =
  match
    List.filter_map
      (function Tl_xml.Xml_dom.Element e -> Some e | _ -> None)
      el.Tl_xml.Xml_dom.children
  with
  | [] -> el.Tl_xml.Xml_dom.tag
  | kids ->
    el.Tl_xml.Xml_dom.tag ^ "(" ^ String.concat "," (List.map element_to_string kids) ^ ")"

let spec_to_string s = element_to_string (TB.to_element s)

(* A random twig over the document's label ids, aiming for [size] nodes.
   Sizes are drawn to straddle the lattice depth in both directions. *)
let gen_twig rng tree ~size =
  let nlabels = Data_tree.label_count tree in
  let label () = Xorshift.int rng nlabels in
  let rec build budget =
    let l = label () in
    if budget <= 1 then Twig.leaf l
    else begin
      let nkids = 1 + Xorshift.int rng (min 3 (budget - 1)) in
      let per_child = max 1 ((budget - 1) / nkids) in
      Twig.node l (List.init nkids (fun _ -> build per_child))
    end
  in
  build size

(* --- the feedback source -------------------------------------------------- *)

(* Deterministic, finite, and keyed on the canonical encoding so the
   interned-key paths and the string-keyed Baseline consult one oracle.
   The explicit rolling hash keeps reproducers stable across OCaml
   versions (Hashtbl.hash is not specified to be). *)
let extra_of_encoding enc =
  let h = ref 17 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFFFF) enc;
  if !h mod 3 = 0 then Some (0.5 +. float_of_int (!h mod 19)) else None

let extra_key key = extra_of_encoding (Twig.Key.encode key)

(* --- one case ------------------------------------------------------------- *)

type case = {
  seed : int;
  k : int;
  spec : TB.spec;
  tree : Data_tree.t;
  twigs : Twig.t array;
}

type failure = { check : string; detail : string }

let schemes =
  [ Estimator.Recursive; Estimator.Recursive_voting; Estimator.Fixed_size; Estimator.Fixed_size_voting 3 ]

let gen_case ~seed =
  let rng = Xorshift.create seed in
  let nlabels = 3 + Xorshift.int rng 4 in
  let max_nodes = 8 + Xorshift.int rng 25 in
  let spec = gen_spec rng ~nlabels ~max_nodes in
  let tree = TB.build spec in
  let k = 2 + Xorshift.int rng 2 in
  let ntwigs = 6 in
  let twigs =
    Array.init ntwigs (fun _ ->
        let size = 1 + Xorshift.int rng ((2 * k) + 2) in
        gen_twig rng tree ~size)
  in
  { seed; k; spec; tree; twigs }

let describe_case case =
  let names l = Data_tree.label_name case.tree l in
  String.concat "\n"
    (Printf.sprintf "  seed: %d" case.seed
     :: Printf.sprintf "  k:    %d" case.k
     :: Printf.sprintf "  tree: %s" (spec_to_string case.spec)
     :: Array.to_list
          (Array.mapi
             (fun i tw -> Printf.sprintf "  twig %d: %s" i (Twig.pp ~names tw))
             case.twigs))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let run_case ?pool case =
  let failures = ref [] in
  let fail check fmt =
    Printf.ksprintf (fun detail -> failures := { check; detail } :: !failures) fmt
  in
  let summary = Summary.build ~k:case.k case.tree in
  let baseline = Baseline.of_summary summary in
  let names = Data_tree.label_names case.tree in
  let pp tw = Twig.pp ~names:(fun l -> names.(l)) tw in
  let loaded =
    match
      Summary_io.load
        ~intern:(fun name ->
          match Data_tree.label_of_string case.tree name with
          | Some id -> id
          | None -> failwith ("round-trip label unknown to the tree: " ^ name))
        (Summary_io.save ~names summary)
    with
    | loaded, _names -> Some loaded
    | exception e ->
      fail "io-round-trip" "save/load raised: %s" (Printexc.to_string e);
      None
  in
  let check_paths scheme extra extra_str tag =
    Array.iter
      (fun tw ->
        let direct = Estimator.estimate ?extra summary scheme tw in
        let plan = Estimator.Plan.eval ?extra (Estimator.Plan.compile summary scheme tw) in
        let base = Baseline.estimate ?extra:extra_str baseline scheme tw in
        if not (same_float direct plan) then
          fail "plan-vs-direct" "scheme=%s extra=%s twig=%s: direct %h vs plan %h"
            (Estimator.scheme_name scheme) tag (pp tw) direct plan;
        if not (same_float direct base) then
          fail "baseline-vs-direct" "scheme=%s extra=%s twig=%s: direct %h vs baseline %h"
            (Estimator.scheme_name scheme) tag (pp tw) direct base;
        match loaded with
        | None -> ()
        | Some loaded ->
          let reloaded = Estimator.estimate ?extra loaded scheme tw in
          if not (same_float direct reloaded) then
            fail "io-round-trip" "scheme=%s extra=%s twig=%s: original %h vs reloaded %h"
              (Estimator.scheme_name scheme) tag (pp tw) direct reloaded)
      case.twigs
  in
  List.iter
    (fun scheme ->
      check_paths scheme None None "no";
      check_paths scheme (Some extra_key) (Some extra_of_encoding) "yes")
    schemes;
  (* Small twigs: a complete summary stores every occurring pattern within
     the lattice depth, so any scheme must answer them exactly. *)
  let ctx = Match_count.create_ctx case.tree in
  Array.iter
    (fun tw ->
      if Twig.size tw <= case.k then begin
        let exact = float_of_int (Match_count.selectivity ctx tw) in
        List.iter
          (fun scheme ->
            let est = Estimator.estimate summary scheme tw in
            if not (same_float exact est) then
              fail "exact-within-k" "scheme=%s twig=%s (size %d <= k): exact %h vs estimate %h"
                (Estimator.scheme_name scheme) (pp tw) (Twig.size tw) exact est)
          schemes
      end)
    case.twigs;
  (* The batch engine: deduped, pooled or not, it must scatter exactly the
     per-call numbers.  The batch repeats every twig to exercise dedup. *)
  let batch = Array.append case.twigs case.twigs in
  let scheme = Tl_core.Treelattice.default_scheme in
  List.iter
    (fun (extra, tag) ->
      let percall = Array.map (fun tw -> Estimator.estimate ?extra summary scheme tw) batch in
      let engine = Engine.create ~scheme summary in
      let seq = Engine.batch ?extra engine batch in
      let check_against name results =
        Array.iteri
          (fun i tw ->
            if not (same_float percall.(i) results.(i)) then
              fail "engine-vs-percall" "%s extra=%s twig=%s: per-call %h vs engine %h" name tag
                (pp tw) percall.(i) results.(i))
          batch
      in
      check_against "sequential" seq;
      match pool with
      | None -> ()
      | Some pool -> check_against "pooled" (Engine.batch ~pool ?extra engine batch))
    [ (None, "no"); (Some extra_key, "yes") ];
  List.rev !failures
