package report

// RenderMarkdown produces a GitHub-flavoured Markdown table.
func (t *Table) RenderMarkdown() string { return render(t, markdownFormat) }

// RenderMarkdown produces the Markdown document.
func (r *Report) RenderMarkdown() string { return render(r, markdownFormat) }
