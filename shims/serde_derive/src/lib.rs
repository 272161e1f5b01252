//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! shim `serde` crate's `to_json`/`from_json` data model, using only the
//! built-in `proc_macro` API (no syn/quote in the offline environment).
//!
//! Supported shapes — exactly what this workspace derives on:
//! - structs with named fields (incl. `#[serde(skip, default = "fn_name")]`)
//! - tuple structs
//! - enums with unit, tuple and struct variants
//!
//! Generics are not supported and produce a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Parsed shapes
// ---------------------------------------------------------------------------

struct Field {
    name: String,
    ty: String,
    skip: bool,
    default_fn: Option<String>,
}

enum Body {
    NamedStruct(Vec<Field>),
    TupleStruct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    body: VariantBody,
}

enum VariantBody {
    Unit,
    Tuple(Vec<String>),
    Struct(Vec<Field>),
}

struct Input {
    name: String,
    body: Body,
}

// ---------------------------------------------------------------------------
// Token-level parsing
// ---------------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

/// Serde attributes found on one field.
#[derive(Default)]
struct SerdeAttrs {
    skip: bool,
    default_fn: Option<String>,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!("expected identifier, got {other:?}")),
        }
    }

    /// Consume leading attributes, returning any `#[serde(...)]` info.
    fn eat_attrs(&mut self) -> SerdeAttrs {
        let mut out = SerdeAttrs::default();
        loop {
            let is_attr = matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#');
            if !is_attr {
                return out;
            }
            self.pos += 1; // '#'
            let Some(TokenTree::Group(g)) = self.next() else {
                return out;
            };
            let mut inner = Cursor::new(g.stream());
            if let Some(TokenTree::Ident(name)) = inner.peek() {
                if name.to_string() == "serde" {
                    inner.pos += 1;
                    if let Some(TokenTree::Group(args)) = inner.next() {
                        parse_serde_args(args.stream(), &mut out);
                    }
                }
            }
        }
    }

    /// Consume an optional visibility (`pub`, `pub(crate)`, ...).
    fn eat_vis(&mut self) {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == "pub" {
                self.pos += 1;
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    /// Collect tokens of a type until a top-level comma (or end), tracking
    /// angle-bracket depth so `Vec<(A, B)>` stays intact.
    fn eat_type(&mut self) -> String {
        let mut depth = 0i32;
        let mut out = String::new();
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            out.push_str(&t.to_string());
            out.push(' ');
            self.pos += 1;
        }
        out
    }
}

fn parse_serde_args(stream: TokenStream, out: &mut SerdeAttrs) {
    let mut c = Cursor::new(stream);
    while !c.at_end() {
        match c.next() {
            Some(TokenTree::Ident(i)) => match i.to_string().as_str() {
                "skip" => out.skip = true,
                "default" => {
                    if !c.eat_punct('=') {
                        continue;
                    }
                    if let Some(TokenTree::Literal(l)) = c.next() {
                        let s = l.to_string();
                        out.default_fn = Some(s.trim_matches('"').to_string());
                    }
                }
                _ => {}
            },
            Some(TokenTree::Punct(_)) => {}
            _ => break,
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(stream);
    let mut fields = Vec::new();
    while !c.at_end() {
        let attrs = c.eat_attrs();
        if c.at_end() {
            break;
        }
        c.eat_vis();
        let name = match c.expect_ident() {
            Ok(n) => n,
            Err(_) => break,
        };
        if !c.eat_punct(':') {
            break;
        }
        let ty = c.eat_type();
        c.eat_punct(',');
        fields.push(Field {
            name,
            ty,
            skip: attrs.skip,
            default_fn: attrs.default_fn,
        });
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<String> {
    let mut c = Cursor::new(stream);
    let mut tys = Vec::new();
    while !c.at_end() {
        let _ = c.eat_attrs();
        if c.at_end() {
            break;
        }
        c.eat_vis();
        let ty = c.eat_type();
        c.eat_punct(',');
        if !ty.trim().is_empty() {
            tys.push(ty);
        }
    }
    tys
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(stream);
    let mut variants = Vec::new();
    while !c.at_end() {
        let _ = c.eat_attrs();
        if c.at_end() {
            break;
        }
        let name = match c.expect_ident() {
            Ok(n) => n,
            Err(_) => break,
        };
        let body = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let tys = parse_tuple_fields(g.stream());
                c.pos += 1;
                VariantBody::Tuple(tys)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                c.pos += 1;
                VariantBody::Struct(fields)
            }
            _ => VariantBody::Unit,
        };
        c.eat_punct(',');
        variants.push(Variant { name, body });
    }
    variants
}

fn parse_input(stream: TokenStream) -> Result<Input, String> {
    let mut c = Cursor::new(stream);
    let _ = c.eat_attrs();
    c.eat_vis();
    let kw = c.expect_ident()?;
    let name = c.expect_ident()?;
    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generics on `{name}` are unsupported"
        ));
    }
    match kw.as_str() {
        "struct" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Input {
                name,
                body: Body::NamedStruct(parse_named_fields(g.stream())),
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Ok(Input {
                name,
                body: Body::TupleStruct(parse_tuple_fields(g.stream())),
            }),
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Input {
                name,
                body: Body::Enum(parse_variants(g.stream())),
            }),
            other => Err(format!("unsupported enum body: {other:?}")),
        },
        other => Err(format!("cannot derive for `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.body {
        Body::NamedStruct(fields) => {
            let mut s = String::from(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Json)> = ::std::vec::Vec::new();\n",
            );
            for f in fields {
                if f.skip {
                    continue;
                }
                s.push_str(&format!(
                    "__fields.push((\"{n}\".to_string(), ::serde::Serialize::to_json(&self.{n})));\n",
                    n = f.name
                ));
            }
            s.push_str("::serde::Json::Obj(__fields)\n");
            s
        }
        Body::TupleStruct(tys) => {
            let elems: Vec<String> = (0..tys.len())
                .map(|i| format!("::serde::Serialize::to_json(&self.{i})"))
                .collect();
            format!("::serde::Json::Arr(vec![{}])\n", elems.join(", "))
        }
        Body::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                let vn = &v.name;
                match &v.body {
                    VariantBody::Unit => {
                        s.push_str(&format!(
                            "{name}::{vn} => ::serde::Json::Str(\"{vn}\".to_string()),\n"
                        ));
                    }
                    VariantBody::Tuple(tys) => {
                        let binds: Vec<String> =
                            (0..tys.len()).map(|i| format!("__f{i}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_json({b})"))
                            .collect();
                        s.push_str(&format!(
                            "{name}::{vn}({b}) => ::serde::Json::Obj(vec![(\"{vn}\".to_string(), ::serde::Json::Arr(vec![{e}]))]),\n",
                            b = binds.join(", "),
                            e = elems.join(", ")
                        ));
                    }
                    VariantBody::Struct(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let elems: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{n}\".to_string(), ::serde::Serialize::to_json({n}))",
                                    n = f.name
                                )
                            })
                            .collect();
                        s.push_str(&format!(
                            "{name}::{vn} {{ {b} }} => ::serde::Json::Obj(vec![(\"{vn}\".to_string(), ::serde::Json::Obj(vec![{e}]))]),\n",
                            b = binds.join(", "),
                            e = elems.join(", ")
                        ));
                    }
                }
            }
            s.push_str("}\n");
            s
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn to_json(&self) -> ::serde::Json {{\n{body}\n}}\n\
         }}\n"
    )
}

fn field_from_json(owner: &str, f: &Field) -> String {
    if f.skip {
        return match &f.default_fn {
            Some(func) => format!("{n}: {func}(),\n", n = f.name),
            None => format!("{n}: ::std::default::Default::default(),\n", n = f.name),
        };
    }
    format!(
        "{n}: <{ty} as ::serde::Deserialize>::from_json(::serde::obj_get(__obj, \"{n}\")\
           .ok_or_else(|| ::serde::DeError::new(\"{owner}.{n}: missing field\"))?)?,\n",
        n = f.name,
        ty = f.ty
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.body {
        Body::NamedStruct(fields) => {
            let mut s = format!(
                "let __obj = __v.as_obj().ok_or_else(|| ::serde::DeError::new(\"{name}: expected object\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n"
            );
            for f in fields {
                s.push_str(&field_from_json(name, f));
            }
            s.push_str("})\n");
            s
        }
        Body::TupleStruct(tys) => {
            let mut s = format!(
                "let __arr = __v.as_arr().ok_or_else(|| ::serde::DeError::new(\"{name}: expected array\"))?;\n\
                 ::std::result::Result::Ok({name}(\n"
            );
            for (i, ty) in tys.iter().enumerate() {
                s.push_str(&format!(
                    "<{ty} as ::serde::Deserialize>::from_json(__arr.get({i})\
                       .ok_or_else(|| ::serde::DeError::new(\"{name}: short array\"))?)?,\n"
                ));
            }
            s.push_str("))\n");
            s
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.body {
                    VariantBody::Unit => {
                        unit_arms.push_str(&format!(
                            "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
                        ));
                    }
                    VariantBody::Tuple(tys) => {
                        let mut fields = String::new();
                        for (i, ty) in tys.iter().enumerate() {
                            fields.push_str(&format!(
                                "<{ty} as ::serde::Deserialize>::from_json(__arr.get({i})\
                                   .ok_or_else(|| ::serde::DeError::new(\"{name}::{vn}: short array\"))?)?,\n"
                            ));
                        }
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                               let __arr = _payload.as_arr().ok_or_else(|| ::serde::DeError::new(\"{name}::{vn}: expected array\"))?;\n\
                               ::std::result::Result::Ok({name}::{vn}({fields}))\n\
                             }}\n"
                        ));
                    }
                    VariantBody::Struct(fs) => {
                        let mut fields = String::new();
                        for f in fs {
                            fields.push_str(&field_from_json(name, f));
                        }
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                               let __obj = _payload.as_obj().ok_or_else(|| ::serde::DeError::new(\"{name}::{vn}: expected object\"))?;\n\
                               ::std::result::Result::Ok({name}::{vn} {{ {fields} }})\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                   ::serde::Json::Str(_s) => match _s.as_str() {{\n\
                     {unit_arms}\
                     _ => ::std::result::Result::Err(::serde::DeError::new(\"{name}: unknown unit variant\")),\n\
                   }},\n\
                   ::serde::Json::Obj(_o) if _o.len() == 1 => {{\n\
                     let (_tag, _payload) = &_o[0];\n\
                     match _tag.as_str() {{\n\
                       {tagged_arms}\
                       _ => ::std::result::Result::Err(::serde::DeError::new(\"{name}: unknown variant\")),\n\
                     }}\n\
                   }}\n\
                   _ => ::std::result::Result::Err(::serde::DeError::new(\"{name}: expected variant encoding\")),\n\
                 }}\n"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn from_json(__v: &::serde::Json) -> ::std::result::Result<{name}, ::serde::DeError> {{\n{body}\n}}\n\
         }}\n"
    )
}

fn expand(input: TokenStream, gen: fn(&Input) -> String) -> TokenStream {
    match parse_input(input) {
        Ok(parsed) => gen(&parsed)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen failed: {e}"))),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
