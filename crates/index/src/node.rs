use sa_geometry::Rect;

/// A leaf-level entry: a user rectangle and its payload.
#[derive(Debug, Clone)]
pub(crate) struct LeafEntry<T> {
    pub rect: Rect,
    pub item: T,
}

/// An internal entry: the bounding rectangle of a child node.
#[derive(Debug)]
pub(crate) struct ChildEntry<T> {
    pub rect: Rect,
    pub child: Box<Node<T>>,
}

/// A tree node. Leaves sit at level 0.
#[derive(Debug)]
pub(crate) enum Node<T> {
    Leaf(Vec<LeafEntry<T>>),
    Internal(Vec<ChildEntry<T>>),
}

impl<T> Node<T> {
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Internal(es) => es.len(),
        }
    }

    /// Minimum bounding rectangle of all entries. `None` for an empty node.
    pub fn mbr(&self) -> Option<Rect> {
        match self {
            Node::Leaf(es) => {
                let mut it = es.iter().map(|e| e.rect);
                let first = it.next()?;
                Some(it.fold(first, |a, r| a.union(r)))
            }
            Node::Internal(es) => {
                let mut it = es.iter().map(|e| e.rect);
                let first = it.next()?;
                Some(it.fold(first, |a, r| a.union(r)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    #[test]
    fn node_mbr_covers_all_entries() {
        let node: Node<u32> = Node::Leaf(vec![
            LeafEntry { rect: r(0.0, 0.0, 1.0, 1.0), item: 1 },
            LeafEntry { rect: r(5.0, -3.0, 6.0, 0.0), item: 2 },
        ]);
        assert_eq!(node.mbr().unwrap(), r(0.0, -3.0, 6.0, 1.0));
        assert_eq!(node.len(), 2);
        let empty: Node<u32> = Node::Leaf(Vec::new());
        assert!(empty.mbr().is_none());
    }
}
