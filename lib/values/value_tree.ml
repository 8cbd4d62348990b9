module Xml_dom = Tl_xml.Xml_dom
module Data_tree = Tl_tree.Data_tree

type t = { tree : Data_tree.t; values : string option array }

(* The value array must align with Data_tree.of_element's preorder ids, so
   the traversal discipline here mirrors it exactly (stack with children
   pushed in reverse). *)
let of_element root_el =
  let tree = Data_tree.of_element root_el in
  let values = Array.make (Data_tree.size tree) None in
  let next_id = ref 0 in
  let stack = ref [ root_el ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | el :: rest ->
      stack := rest;
      let id = !next_id in
      incr next_id;
      let element_children =
        List.filter_map
          (fun child ->
            match child with
            | Xml_dom.Element e -> Some e
            | Xml_dom.Text _ | Xml_dom.Comment _ | Xml_dom.Pi _ -> None)
          el.Xml_dom.children
      in
      if element_children = [] then begin
        let text =
          List.filter_map
            (fun child -> match child with Xml_dom.Text t -> Some t | _ -> None)
            el.Xml_dom.children
          |> String.concat "" |> String.trim
        in
        if text <> "" then values.(id) <- Some text
      end;
      List.iter (fun e -> stack := e :: !stack) (List.rev element_children)
  done;
  { tree; values }

let of_xml (doc : Xml_dom.t) = of_element doc.root

let of_file path = of_xml (Xml_dom.parse_file path)

let tree t = t.tree

let value t v = t.values.(v)

let valued_nodes t =
  Array.fold_left (fun acc v -> match v with Some _ -> acc + 1 | None -> acc) 0 t.values
